//! Build a simulated-device model from a catalog + vendor style.
//!
//! The [`DeviceModel`] is the *firmware truth* used by §5.3's live
//! validation: it accepts exactly the commands the catalog defines, in
//! the vendor's surface syntax, with the vendor's view names. Undo/no
//! forms are accepted as configuration commands (real devices do), so
//! generated undo instances pass the acceptance + read-back loop.

use nassim_datasets::catalog::Catalog;
use nassim_datasets::style::VendorStyle;
use nassim_device::faults::FaultPlan;
use nassim_device::model::{DeviceModel, ModelError};
use nassim_device::DeviceServer;
use nassim_diag::NassimError;
use std::sync::Arc;

/// Assemble the device model of `style`'s rendering of `catalog`.
pub fn device_model_from_catalog(
    catalog: &Catalog,
    style: &VendorStyle,
) -> Result<DeviceModel, ModelError> {
    let root = style.view_name("system");
    let mut model = DeviceModel::new(root.clone());
    // Views first (parents before children — iterate until fixpoint to
    // stay independent of declaration order).
    let mut pending: Vec<_> = catalog.views.iter().filter(|v| v.key != "system").collect();
    while !pending.is_empty() {
        let before = pending.len();
        let mut add_err = None;
        pending.retain(|v| {
            if add_err.is_some() {
                return true;
            }
            let name = style.view_name(&v.key);
            let parent = style.view_name(&v.parent);
            if model.has_view(&parent) {
                if let Err(e) = model.add_view(&name, &parent) {
                    add_err = Some(e);
                }
                false
            } else {
                true
            }
        });
        if let Some(e) = add_err {
            return Err(e);
        }
        if pending.len() >= before {
            // Cycle or missing parent: no view made progress this round.
            let unresolved = pending
                .first()
                .map(|v| style.view_name(&v.parent))
                .unwrap_or_default();
            return Err(ModelError::UnknownView(unresolved));
        }
    }
    // Commands — registered under every view they work in.
    for cmd in &catalog.commands {
        let opens = cmd.opens.as_ref().map(|v| style.view_name(v));
        for view_key in
            std::iter::once(cmd.view.as_str()).chain(cmd.also_views.iter().map(String::as_str))
        {
            let view = style.view_name(view_key);
            model.add_command(
                &view,
                &style.render_template(&cmd.template),
                opens.as_deref(),
            )?;
            if cmd.has_undo {
                model.add_command(&view, &style.render_undo(&cmd.template), None)?;
            }
        }
    }
    Ok(model)
}

/// How to spawn the simulated device for a validation run.
#[derive(Default)]
pub struct DeviceSpawnOptions {
    /// Chaos layer: a seeded fault-injection plan (`None` = a faithful
    /// device). When `None`, the server still honors the
    /// `NASSIM_FAULTS=seed:rate` environment knob.
    pub faults: Option<Arc<FaultPlan>>,
}

/// Build the device model of `style`'s rendering of `catalog` and spawn
/// a [`DeviceServer`] for it — the one-call path from catalog to a live
/// (optionally chaotic) validation endpoint.
pub fn spawn_device(
    catalog: &Catalog,
    style: &VendorStyle,
    opts: DeviceSpawnOptions,
) -> Result<DeviceServer, NassimError> {
    let model = device_model_from_catalog(catalog, style).map_err(|e| NassimError::Device {
        reason: format!("build device model: {e}"),
    })?;
    let server = match opts.faults {
        Some(plan) => DeviceServer::spawn_with(Arc::new(model), Some(plan)),
        None => DeviceServer::spawn(Arc::new(model)),
    };
    server.map_err(|e| NassimError::io("spawn device server", &e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nassim_datasets::style::vendor;
    use nassim_device::Session;

    #[test]
    fn catalog_device_accepts_rendered_instances() {
        let cat = Catalog::base();
        let style = vendor("helix").unwrap();
        let model = device_model_from_catalog(&cat, &style).unwrap();
        assert_eq!(model.view_count(), cat.views.len());
        let mut s = Session::new(&model);
        s.exec("bgp 65001").unwrap();
        s.exec("peer 10.0.0.2 as-number 65002").unwrap();
        s.exec("undo peer 10.0.0.2 as-number 65002").unwrap();
        s.exec("return").unwrap();
        s.exec("vlan 100").unwrap();
        assert_eq!(s.current_view(), "vlan view");
    }

    #[test]
    fn vendor_surface_syntax_differs() {
        let cat = Catalog::base();
        let cirrus = device_model_from_catalog(&cat, &vendor("cirrus").unwrap()).unwrap();
        let mut s = Session::new(&cirrus);
        // cirrus says `neighbor`, not `peer`, inside `bgp`.
        s.exec("bgp 65001").unwrap();
        assert!(s.exec("peer 10.0.0.2 as-number 65002").is_err());
        assert!(s.exec("neighbor 10.0.0.2 as-number 65002").is_ok());
    }

    #[test]
    fn spawn_device_serves_catalog_commands() {
        use nassim_device::DeviceClient;
        let cat = Catalog::base();
        let style = vendor("helix").unwrap();
        let mut server = spawn_device(&cat, &style, DeviceSpawnOptions::default()).unwrap();
        let mut client = DeviceClient::connect(server.addr()).unwrap();
        assert!(matches!(
            client.exec("bgp 65001").unwrap(),
            nassim_device::Response::Ok { .. }
        ));
        server.stop();
    }

    #[test]
    fn spawn_device_threads_the_fault_plan_through() {
        use nassim_device::DeviceClient;
        let cat = Catalog::base();
        let style = vendor("helix").unwrap();
        let plan = Arc::new(FaultPlan::only(4, nassim_device::FaultKind::Busy, 1.0));
        let mut server = spawn_device(
            &cat,
            &style,
            DeviceSpawnOptions {
                faults: Some(Arc::clone(&plan)),
            },
        )
        .unwrap();
        let mut client = DeviceClient::connect(server.addr()).unwrap();
        match client.exec("bgp 65001").unwrap() {
            nassim_device::Response::Err { message } => assert!(message.starts_with("busy")),
            other => panic!("expected injected busy, got {other:?}"),
        }
        assert_eq!(plan.take_injections().len(), 1);
        server.stop();
    }

    #[test]
    fn all_vendor_models_build() {
        let cat = Catalog::with_scale(100);
        for v in nassim_datasets::style::vendors() {
            let model = device_model_from_catalog(&cat, &v).unwrap();
            assert!(model.command_count() > cat.commands.len(), "{}", v.name);
        }
    }
}
