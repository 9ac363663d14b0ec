//! The device's true configuration model.
//!
//! A [`DeviceModel`] is what the firmware "knows": which views exist,
//! how they nest, and which command templates each view accepts. It is
//! the oracle the Validator tests generated instances against — distinct
//! from the VDM, which is what the *manual* (possibly wrongly) claims.

use nassim_cgm::CliGraph;
use nassim_syntax::parse_template;
use std::collections::BTreeMap;
use std::fmt;

/// Error raised while assembling a model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    UnknownView(String),
    DuplicateView(String),
    BadTemplate { template: String, reason: String },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::UnknownView(v) => write!(f, "unknown view `{v}`"),
            ModelError::DuplicateView(v) => write!(f, "duplicate view `{v}`"),
            ModelError::BadTemplate { template, reason } => {
                write!(f, "bad template `{template}`: {reason}")
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// One accepted command of one view.
pub struct CommandSpec {
    /// The template text (for error messages and introspection).
    pub template: String,
    /// Compiled graph used for instance matching.
    pub graph: CliGraph,
    /// View the command enters on success, if any.
    pub opens: Option<String>,
}

/// The device model: view tree plus per-view command sets.
pub struct DeviceModel {
    root_view: String,
    /// view name → parent view name (root maps to itself).
    parents: BTreeMap<String, String>,
    /// view name → accepted commands.
    commands: BTreeMap<String, Vec<CommandSpec>>,
}

impl DeviceModel {
    /// Create a model whose entry view is `root_view`.
    pub fn new(root_view: impl Into<String>) -> DeviceModel {
        let root_view = root_view.into();
        let mut parents = BTreeMap::new();
        parents.insert(root_view.clone(), root_view.clone());
        let mut commands = BTreeMap::new();
        commands.insert(root_view.clone(), Vec::new());
        DeviceModel {
            root_view,
            parents,
            commands,
        }
    }

    /// The entry view name.
    pub fn root_view(&self) -> &str {
        &self.root_view
    }

    /// Register a view under `parent`.
    pub fn add_view(&mut self, name: &str, parent: &str) -> Result<(), ModelError> {
        if self.parents.contains_key(name) {
            return Err(ModelError::DuplicateView(name.to_string()));
        }
        if !self.parents.contains_key(parent) {
            return Err(ModelError::UnknownView(parent.to_string()));
        }
        self.parents.insert(name.to_string(), parent.to_string());
        self.commands.insert(name.to_string(), Vec::new());
        Ok(())
    }

    /// Register a command template accepted in `view`; `opens` names the
    /// view the command enters, if any.
    pub fn add_command(
        &mut self,
        view: &str,
        template: &str,
        opens: Option<&str>,
    ) -> Result<(), ModelError> {
        if let Some(target) = opens {
            if !self.parents.contains_key(target) {
                return Err(ModelError::UnknownView(target.to_string()));
            }
        }
        let struc = parse_template(template).map_err(|e| ModelError::BadTemplate {
            template: template.to_string(),
            reason: e.expected,
        })?;
        let spec = CommandSpec {
            template: template.to_string(),
            graph: CliGraph::build(&struc),
            opens: opens.map(str::to_string),
        };
        match self.commands.get_mut(view) {
            Some(cmds) => {
                cmds.push(spec);
                Ok(())
            }
            None => Err(ModelError::UnknownView(view.to_string())),
        }
    }

    /// Does `view` exist?
    pub fn has_view(&self, view: &str) -> bool {
        self.parents.contains_key(view)
    }

    /// Parent of `view` (root is its own parent).
    pub fn parent_of(&self, view: &str) -> Option<&str> {
        self.parents.get(view).map(String::as_str)
    }

    /// Commands accepted in `view`.
    pub fn commands_in(&self, view: &str) -> &[CommandSpec] {
        self.commands.get(view).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total number of registered commands.
    pub fn command_count(&self) -> usize {
        self.commands.values().map(Vec::len).sum()
    }

    /// Number of views.
    pub fn view_count(&self) -> usize {
        self.parents.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_views_and_commands() {
        let mut m = DeviceModel::new("system");
        m.add_view("bgp-view", "system").unwrap();
        m.add_command("system", "bgp <as-number>", Some("bgp-view"))
            .unwrap();
        m.add_command("bgp-view", "router-id <ipv4-address>", None)
            .unwrap();
        assert_eq!(m.view_count(), 2);
        assert_eq!(m.command_count(), 2);
        assert_eq!(m.parent_of("bgp-view"), Some("system"));
        assert_eq!(m.parent_of("system"), Some("system"));
    }

    #[test]
    fn rejects_unknown_and_duplicate_views() {
        let mut m = DeviceModel::new("system");
        assert_eq!(
            m.add_view("x", "nope"),
            Err(ModelError::UnknownView("nope".into()))
        );
        m.add_view("x", "system").unwrap();
        assert_eq!(
            m.add_view("x", "system"),
            Err(ModelError::DuplicateView("x".into()))
        );
        assert_eq!(
            m.add_command("nope", "a", None),
            Err(ModelError::UnknownView("nope".into()))
        );
        assert_eq!(
            m.add_command("system", "a", Some("nope")),
            Err(ModelError::UnknownView("nope".into()))
        );
    }

    #[test]
    fn rejects_malformed_templates() {
        let mut m = DeviceModel::new("system");
        let err = m.add_command("system", "bad { template", None).unwrap_err();
        assert!(matches!(err, ModelError::BadTemplate { .. }));
    }
}
