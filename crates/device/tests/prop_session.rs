//! Property tests for the device session: totality on arbitrary input,
//! view-stack sanity, and config-store consistency with accepted
//! commands.
// Property-test bodies and helpers sit outside #[test] fns; panics are the
// assertion mechanism here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nassim_device::{DeviceModel, Session};
use proptest::prelude::*;

fn model() -> DeviceModel {
    let mut m = DeviceModel::new("system");
    m.add_view("bgp-view", "system").unwrap();
    m.add_view("vlan-view", "system").unwrap();
    m.add_command("system", "bgp <as-number>", Some("bgp-view"))
        .unwrap();
    m.add_command("system", "vlan <vlan-id>", Some("vlan-view"))
        .unwrap();
    m.add_command("system", "sysname <host-name>", None)
        .unwrap();
    m.add_command("bgp-view", "router-id <ipv4-address>", None)
        .unwrap();
    m.add_command("vlan-view", "description <text>", None)
        .unwrap();
    m
}

/// Inputs mixing valid commands, navigation and junk.
fn command_line() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("bgp 65001".to_string()),
        Just("vlan 100".to_string()),
        Just("sysname core1".to_string()),
        Just("router-id 1.1.1.1".to_string()),
        Just("description uplink".to_string()),
        Just("quit".to_string()),
        Just("return".to_string()),
        Just("display current-configuration".to_string()),
        "[a-z0-9 .<>{}-]{0,30}".prop_map(|s| s),
    ]
}

proptest! {
    /// A session never panics, never loses its root view, and its stored
    /// configuration equals the number of accepted config/view commands.
    #[test]
    fn session_is_total_and_consistent(lines in prop::collection::vec(command_line(), 0..40)) {
        let m = model();
        let mut s = Session::new(&m);
        let mut accepted_config = 0usize;
        for line in &lines {
            match s.exec(line) {
                Ok(nassim_device::session::Accepted::Config { .. })
                | Ok(nassim_device::session::Accepted::EnteredView { .. }) => {
                    accepted_config += 1;
                }
                _ => {}
            }
            prop_assert!(!s.current_view().is_empty());
        }
        prop_assert_eq!(s.render_config().len(), accepted_config);
        // Every stored line is found by the read-back check.
        for line in s.render_config() {
            prop_assert!(s.has_config_line(line.trim_start()));
        }
    }

    /// quit/return navigation can never escape past the root.
    #[test]
    fn navigation_never_escapes_root(quits in 1usize..10) {
        let m = model();
        let mut s = Session::new(&m);
        s.exec("bgp 65001").unwrap();
        for _ in 0..quits {
            let _ = s.exec("quit");
            prop_assert!(s.current_view() == "system" || s.current_view() == "bgp-view");
        }
        let _ = s.exec("return");
        prop_assert_eq!(s.current_view(), "system");
    }

    /// The config dump is replayable: feeding it back into a fresh
    /// session (honouring indentation as view nesting) reproduces it.
    #[test]
    fn config_dump_is_replayable(lines in prop::collection::vec(command_line(), 0..30)) {
        let m = model();
        let mut s = Session::new(&m);
        for line in &lines {
            let _ = s.exec(line);
        }
        let dump = s.render_config();

        let mut replay = Session::new(&m);
        // Indents of currently open view-entering lines.
        let mut open_depths: Vec<usize> = Vec::new();
        for line in &dump {
            let indent = line.len() - line.trim_start().len();
            while open_depths.last().map(|&d| d >= indent).unwrap_or(false) {
                open_depths.pop();
                replay.exec("quit").expect("matching quit");
            }
            let accepted = replay.exec(line.trim_start()).unwrap_or_else(|e| {
                panic!("replay rejected dumped line `{line}`: {e}")
            });
            if matches!(accepted, nassim_device::session::Accepted::EnteredView { .. }) {
                open_depths.push(indent);
            }
        }
        let replayed = replay.render_config();
        prop_assert_eq!(replayed, dump);
    }
}
