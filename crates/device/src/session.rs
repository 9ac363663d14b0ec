//! A stateful CLI session over a [`DeviceModel`].
//!
//! The session mirrors real device behaviour: commands are matched
//! against the *current* view only; view-entering commands push onto the
//! view stack; `quit` pops one level; `return` jumps to the root view.
//! Accepted configuration lines are stored hierarchically and re-rendered
//! by `display current-configuration` with one-space-per-level
//! indentation — the same shape the config-file generator emits, so
//! read-back checks are byte comparisons.

use crate::model::DeviceModel;
use nassim_cgm::matching::is_cli_match;
use std::fmt;

/// A rejected command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandError {
    /// The offending input line.
    pub input: String,
    /// The view the device was in.
    pub view: String,
    /// Explanation, e.g. `unrecognized command`.
    pub message: String,
}

impl fmt::Display for CommandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "error in {}: {} ({})",
            self.view, self.message, self.input
        )
    }
}

/// One stored configuration node: the accepted line plus nested children.
#[derive(Debug, Clone, Default)]
struct ConfigNode {
    line: String,
    children: Vec<ConfigNode>,
}

/// What a successful command did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Accepted {
    /// Configuration stored; session stays in the same view.
    Config { view: String },
    /// Session entered `view`.
    EnteredView { view: String },
    /// Session left a view (quit/return).
    LeftView { view: String },
    /// Output-producing command (e.g. `display current-configuration`).
    Output(Vec<String>),
}

/// A CLI session bound to a device model.
pub struct Session<'m> {
    model: &'m DeviceModel,
    /// Stack of view names; never empty (bottom = root view).
    view_stack: Vec<String>,
    /// Index path into `config` identifying the open stanza per stack
    /// level above the root.
    open_path: Vec<usize>,
    /// Stored configuration stanzas at the root level.
    config: Vec<ConfigNode>,
}

impl<'m> Session<'m> {
    /// Open a session at the model's root view.
    pub fn new(model: &'m DeviceModel) -> Session<'m> {
        Session {
            model,
            view_stack: vec![model.root_view().to_string()],
            open_path: Vec::new(),
            config: Vec::new(),
        }
    }

    /// The current view name.
    pub fn current_view(&self) -> &str {
        self.view_stack
            .last()
            .map(String::as_str)
            .unwrap_or_else(|| self.model.root_view())
    }

    /// Execute one command line.
    pub fn exec(&mut self, line: &str) -> Result<Accepted, CommandError> {
        let input = line.trim();
        if input.is_empty() {
            return Err(self.err(input, "empty command"));
        }
        match input {
            "quit" | "exit" => return self.pop_view(input),
            "return" | "end" => {
                while self.view_stack.len() > 1 {
                    self.view_stack.pop();
                    self.open_path.pop();
                }
                return Ok(Accepted::LeftView {
                    view: self.current_view().to_string(),
                });
            }
            "display current-configuration" | "show running-config" => {
                return Ok(Accepted::Output(self.render_config()));
            }
            _ => {}
        }
        // Match against the current view's command set.
        let view = self.current_view().to_string();
        let matched = self
            .model
            .commands_in(&view)
            .iter()
            .find(|spec| is_cli_match(input, &spec.graph));
        let Some(spec) = matched else {
            return Err(self.err(input, "unrecognized command"));
        };
        // Store the accepted line at the open stanza.
        let node = ConfigNode {
            line: input.to_string(),
            children: Vec::new(),
        };
        let siblings = self.open_children();
        siblings.push(node);
        let idx = siblings.len() - 1;
        match &spec.opens {
            Some(target) => {
                self.view_stack.push(target.clone());
                self.open_path.push(idx);
                Ok(Accepted::EnteredView {
                    view: target.clone(),
                })
            }
            None => Ok(Accepted::Config { view }),
        }
    }

    fn pop_view(&mut self, input: &str) -> Result<Accepted, CommandError> {
        if self.view_stack.len() <= 1 {
            return Err(self.err(input, "already at the root view"));
        }
        self.view_stack.pop();
        self.open_path.pop();
        Ok(Accepted::LeftView {
            view: self.current_view().to_string(),
        })
    }

    fn err(&self, input: &str, message: &str) -> CommandError {
        CommandError {
            input: input.to_string(),
            view: self.current_view().to_string(),
            message: message.to_string(),
        }
    }

    /// Children vec of the currently open stanza.
    fn open_children(&mut self) -> &mut Vec<ConfigNode> {
        let mut cur = &mut self.config;
        for &i in &self.open_path {
            cur = &mut cur[i].children;
        }
        cur
    }

    /// Render the stored configuration with hierarchy indentation.
    pub fn render_config(&self) -> Vec<String> {
        fn walk(nodes: &[ConfigNode], depth: usize, out: &mut Vec<String>) {
            for n in nodes {
                out.push(format!("{}{}", " ".repeat(depth), n.line));
                walk(&n.children, depth + 1, out);
            }
        }
        let mut out = Vec::new();
        walk(&self.config, 0, &mut out);
        out
    }

    /// True if `line` (exact text, any indentation level) is present in
    /// the stored configuration — the §5.3 read-back check. Both sides
    /// are fully trimmed so trailing whitespace never breaks the match.
    pub fn has_config_line(&self, line: &str) -> bool {
        self.render_config().iter().any(|l| l.trim() == line.trim())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> DeviceModel {
        let mut m = DeviceModel::new("system");
        m.add_view("bgp-view", "system").unwrap();
        m.add_view("bgp-af-view", "bgp-view").unwrap();
        m.add_view("vlan-view", "system").unwrap();
        m.add_command("system", "bgp <as-number>", Some("bgp-view"))
            .unwrap();
        m.add_command("system", "vlan <vlan-id>", Some("vlan-view"))
            .unwrap();
        m.add_command("system", "sysname <host-name>", None)
            .unwrap();
        m.add_command("bgp-view", "router-id <ipv4-address>", None)
            .unwrap();
        m.add_command(
            "bgp-view",
            "peer <ipv4-address> as-number <as-number>",
            None,
        )
        .unwrap();
        m.add_command("bgp-view", "ipv4-family unicast", Some("bgp-af-view"))
            .unwrap();
        m.add_command("bgp-af-view", "preference <preference>", None)
            .unwrap();
        m.add_command("vlan-view", "description <text>", None)
            .unwrap();
        m
    }

    #[test]
    fn accepts_commands_in_current_view_only() {
        let m = model();
        let mut s = Session::new(&m);
        // BGP command rejected at root.
        assert!(s.exec("router-id 1.1.1.1").is_err());
        s.exec("bgp 65001").unwrap();
        assert_eq!(s.current_view(), "bgp-view");
        s.exec("router-id 1.1.1.1").unwrap();
        // Root command rejected inside BGP view.
        assert!(s.exec("sysname core1").is_err());
    }

    #[test]
    fn view_navigation_quit_and_return() {
        let m = model();
        let mut s = Session::new(&m);
        s.exec("bgp 65001").unwrap();
        s.exec("ipv4-family unicast").unwrap();
        assert_eq!(s.current_view(), "bgp-af-view");
        s.exec("quit").unwrap();
        assert_eq!(s.current_view(), "bgp-view");
        s.exec("ipv4-family unicast").unwrap();
        s.exec("return").unwrap();
        assert_eq!(s.current_view(), "system");
        assert!(s.exec("quit").is_err(), "quit at root must fail");
    }

    #[test]
    fn config_rendered_hierarchically() {
        let m = model();
        let mut s = Session::new(&m);
        s.exec("sysname core1").unwrap();
        s.exec("bgp 65001").unwrap();
        s.exec("router-id 1.1.1.1").unwrap();
        s.exec("ipv4-family unicast").unwrap();
        s.exec("preference 120").unwrap();
        s.exec("return").unwrap();
        s.exec("vlan 100").unwrap();
        s.exec("description uplink").unwrap();
        assert_eq!(
            s.render_config(),
            vec![
                "sysname core1",
                "bgp 65001",
                " router-id 1.1.1.1",
                " ipv4-family unicast",
                "  preference 120",
                "vlan 100",
                " description uplink",
            ]
        );
    }

    #[test]
    fn readback_check_finds_configured_lines() {
        let m = model();
        let mut s = Session::new(&m);
        s.exec("bgp 65001").unwrap();
        s.exec("peer 10.0.0.2 as-number 65002").unwrap();
        assert!(s.has_config_line("peer 10.0.0.2 as-number 65002"));
        assert!(!s.has_config_line("peer 10.0.0.3 as-number 65002"));
    }

    #[test]
    fn readback_ignores_trailing_whitespace() {
        let m = model();
        let mut s = Session::new(&m);
        s.exec("bgp 65001").unwrap();
        s.exec("router-id 1.1.1.1").unwrap();
        // Queries with stray trailing/leading whitespace still match the
        // stored (indented) line.
        assert!(s.has_config_line("router-id 1.1.1.1 "));
        assert!(s.has_config_line("  router-id 1.1.1.1  "));
        assert!(!s.has_config_line("router-id 1.1.1.2 "));
    }

    #[test]
    fn display_returns_output_variant() {
        let m = model();
        let mut s = Session::new(&m);
        s.exec("sysname core1").unwrap();
        match s.exec("display current-configuration").unwrap() {
            Accepted::Output(lines) => assert_eq!(lines, vec!["sysname core1"]),
            other => panic!("expected output, got {other:?}"),
        }
    }

    #[test]
    fn type_mismatches_rejected() {
        let m = model();
        let mut s = Session::new(&m);
        assert!(s.exec("bgp not-a-number").is_err());
        assert!(s.exec("vlan 10 20").is_err());
        assert!(s.exec("").is_err());
    }

    #[test]
    fn reentering_view_appends_to_new_stanza() {
        let m = model();
        let mut s = Session::new(&m);
        s.exec("vlan 100").unwrap();
        s.exec("quit").unwrap();
        s.exec("vlan 200").unwrap();
        s.exec("description second").unwrap();
        let cfg = s.render_config();
        assert_eq!(cfg[0], "vlan 100");
        assert_eq!(cfg[1], "vlan 200");
        assert_eq!(cfg[2], " description second");
    }
}
