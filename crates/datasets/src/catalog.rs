//! The vendor-neutral command catalog — the synthetic ground truth.
//!
//! A [`Catalog`] describes what a device family can do, independent of any
//! vendor's wording: command schemas with canonical templates, canonical
//! parameter semantics, the view hierarchy, and each command's feature
//! path (used by the UDM generator for alignment ground truth).
//!
//! The base catalog is hand-written and semantically meaningful — it is
//! what the Mapper's ground truth is built from. [`Catalog::with_scale`]
//! additionally mints procedural *filler* command families from word
//! pools so that parser/validator experiments run at paper-like VDM sizes
//! (the paper's large vendors have 12–14k CLI commands) without
//! hand-writing ten thousand schemas.

use crate::words::{ATTR_WORDS, FEATURE_WORDS, OBJECT_WORDS};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A canonical placeholder parameter: its name as used in canonical
/// templates, its prose semantics, and its value type.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CatalogParam {
    pub name: String,
    pub description: String,
    pub value_type: String,
}

/// One command schema.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CatalogCommand {
    /// Stable unique key, e.g. `bgp.peer-as`.
    pub key: String,
    /// Feature group, e.g. `bgp` — also the manual chapter.
    pub group: String,
    /// Canonical template, e.g. `peer <ipv4-address> as-number <as-number>`.
    pub template: String,
    /// Whether an undo/no/delete form is also documented on the page.
    pub has_undo: bool,
    /// Canonical function description.
    pub func: String,
    /// Primary view key the command works under (see [`ViewDef`]).
    pub view: String,
    /// Additional views the same command also works under. One command in
    /// several views is common (the paper's `peer … as-number …` works in
    /// the BGP view, BGP multi-instance view, BGP-VPN instance view, …)
    /// and is why VDM size must be counted in CLI-view pairs (§7.2).
    pub also_views: Vec<String>,
    /// View key the command opens, if it is a view-entering command.
    pub opens: Option<String>,
    /// Parameters used by the template (canonical names).
    pub params: Vec<CatalogParam>,
    /// UDM feature path prefix for this command's parameters, e.g.
    /// `protocols/bgp/neighbor`. Empty for commands outside the UDM's
    /// common-functionality intersection (e.g. `display` and filler).
    pub feature_path: String,
}

/// A configuration view (command mode).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ViewDef {
    /// Stable key, e.g. `bgp-view`.
    pub key: String,
    /// Parent view key (`system` is the root and its own parent).
    pub parent: String,
    /// Key of the command that opens this view (none for the root).
    pub opener: Option<String>,
}

/// The full catalog: commands, views and the canonical parameter lexicon.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Catalog {
    pub commands: Vec<CatalogCommand>,
    pub views: Vec<ViewDef>,
}

/// The canonical parameter lexicon: name → (description, value type).
/// Defined once; command schemas reference parameters by name.
fn param_lexicon() -> BTreeMap<&'static str, (&'static str, &'static str)> {
    let entries: &[(&str, &str, &str)] = &[
        ("vlan-id", "Specifies the identifier of the VLAN. The value is an integer in the range 1 to 4094.", "uint16"),
        ("vlan-name", "Specifies the name of the VLAN, a string of 1 to 31 characters.", "string"),
        ("as-number", "Specifies the autonomous system number. The value is an integer in the range 1 to 4294967295.", "uint32"),
        ("ipv4-address", "Specifies an IPv4 address in dotted decimal notation.", "ipv4-address"),
        ("mask-length", "Specifies the length of the subnet mask. The value is an integer in the range 0 to 32.", "uint8"),
        ("wildcard-mask", "Specifies the wildcard mask of the network in dotted decimal notation.", "ipv4-address"),
        ("next-hop-address", "Specifies the IPv4 address of the next hop for the route.", "ipv4-address"),
        ("interface-id", "Specifies the type and number of the interface, for example 10GE1/0/1.", "string"),
        ("mtu-value", "Specifies the maximum transmission unit of the interface in bytes. The value is an integer in the range 68 to 9600.", "uint16"),
        ("bandwidth", "Specifies the bandwidth value in kilobits per second.", "uint32"),
        ("description-text", "Specifies the description, a string of 1 to 242 characters.", "string"),
        ("host-name", "Specifies the host name of the device, a string of 1 to 64 characters.", "string"),
        ("timezone-name", "Specifies the name of the local time zone.", "string"),
        ("offset-hours", "Specifies the offset of the time zone from UTC in hours.", "uint8"),
        ("banner-text", "Specifies the login banner text presented before authentication.", "string"),
        ("group-name", "Specifies the name of a peer group, a string of 1 to 47 characters.", "string"),
        ("peer-address", "Specifies the IPv4 address of the remote peer.", "ipv4-address"),
        ("keepalive-time", "Specifies the keepalive timer in seconds. The value is an integer in the range 0 to 21845.", "uint16"),
        ("hold-time", "Specifies the hold timer in seconds. The value is an integer in the range 3 to 65535.", "uint16"),
        ("route-policy-name", "Specifies the name of a routing policy applied to the peer.", "string"),
        ("ip-prefix-name", "Specifies the name of an IP prefix list.", "string"),
        ("acl-number", "Specifies the number of the access control list. The value is an integer in the range 2000 to 4999.", "uint16"),
        ("acl-name", "Specifies the name of a named access control list.", "string"),
        ("rule-id", "Specifies the identifier of the ACL rule. The value is an integer in the range 0 to 4294967294.", "uint32"),
        ("step-value", "Specifies the increment between automatically numbered rules.", "uint16"),
        ("ospf-process-id", "Specifies the identifier of the OSPF process. The value is an integer in the range 1 to 65535.", "uint16"),
        ("area-id", "Specifies the identifier of the OSPF area, in integer or dotted decimal notation.", "string"),
        ("isis-process-id", "Specifies the identifier of the IS-IS process.", "uint16"),
        ("net-entity", "Specifies the network entity title of the IS-IS process.", "string"),
        ("preference", "Specifies the route preference. A smaller value indicates a higher preference.", "uint8"),
        ("tag", "Specifies the tag value attached to the route for policy matching.", "uint32"),
        ("path-count", "Specifies the maximum number of equal-cost routes for load balancing.", "uint8"),
        ("instance-id", "Specifies the identifier of the spanning tree instance. The value is an integer in the range 0 to 4094.", "uint16"),
        ("priority", "Specifies the priority value. A smaller value indicates a higher priority.", "uint16"),
        ("cost", "Specifies the path cost of the interface in the instance.", "uint32"),
        ("vrid", "Specifies the identifier of the VRRP group. The value is an integer in the range 1 to 255.", "uint8"),
        ("virtual-address", "Specifies the virtual IPv4 address of the VRRP group.", "ipv4-address"),
        ("pool-name", "Specifies the name of the DHCP address pool.", "string"),
        ("lease-days", "Specifies the lease duration of addresses in the pool in days.", "uint16"),
        ("community-name", "Specifies the SNMP community name, a string of 1 to 32 characters.", "string"),
        ("security-name", "Specifies the security name used when sending notifications to the target host.", "string"),
        ("version-number", "Specifies the NTP protocol version number.", "uint8"),
        ("facility-name", "Specifies the syslog facility used for messages sent to the log host.", "string"),
        ("user-name", "Specifies the name of the local user account.", "string"),
        ("password", "Specifies the cipher-text password of the user.", "string"),
        ("privilege-level", "Specifies the privilege level of the user. The value is an integer in the range 0 to 15.", "uint8"),
        ("domain-name", "Specifies the name of the authentication domain.", "string"),
        ("classifier-name", "Specifies the name of the traffic classifier.", "string"),
        ("behavior-name", "Specifies the name of the traffic behavior.", "string"),
        ("dscp-value", "Specifies the differentiated services code point value. The value is an integer in the range 0 to 63.", "uint8"),
        ("queue-id", "Specifies the identifier of the queue on the interface.", "uint8"),
        ("lsr-id", "Specifies the label switching router identifier in IPv4 address format.", "ipv4-address"),
        ("port-index", "Specifies the index of the observing port used by the mirroring session.", "uint8"),
        ("mac-address", "Specifies the MAC address in hexadecimal notation.", "mac-address"),
        ("vpn-instance-name", "Specifies the name of the VPN instance.", "string"),
    ];
    entries.iter().map(|&(n, d, t)| (n, (d, t))).collect()
}

/// Placeholder names occurring in `template`, in order, deduplicated.
fn template_params(template: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut rest = template;
    while let Some(open) = rest.find('<') {
        let after = &rest[open + 1..];
        let Some(close) = after.find('>') else { break };
        let name = after[..close].to_string();
        if !out.contains(&name) {
            out.push(name);
        }
        rest = &after[close + 1..];
    }
    out
}

/// Internal builder for one schema row.
struct Row {
    key: &'static str,
    group: &'static str,
    view: &'static str,
    template: &'static str,
    func: &'static str,
    opens: Option<&'static str>,
    has_undo: bool,
    feature_path: &'static str,
    also_views: &'static [&'static str],
}

const fn row(
    key: &'static str,
    group: &'static str,
    view: &'static str,
    template: &'static str,
    func: &'static str,
) -> Row {
    Row {
        key,
        group,
        view,
        template,
        func,
        opens: None,
        has_undo: true,
        feature_path: "",
        also_views: &[],
    }
}

impl Row {
    const fn opens(mut self, view: &'static str) -> Row {
        self.opens = Some(view);
        self
    }
    const fn no_undo(mut self) -> Row {
        self.has_undo = false;
        self
    }
    const fn feature(mut self, path: &'static str) -> Row {
        self.feature_path = path;
        self
    }
    const fn also(mut self, views: &'static [&'static str]) -> Row {
        self.also_views = views;
        self
    }
}

/// The hand-written base schemas. Kept in one place so the catalog reads
/// like the feature matrix it is.
fn base_rows() -> Vec<Row> {
    vec![
        // -- system management ------------------------------------------
        row("system.sysname", "system", "system", "sysname <host-name>",
            "Sets the host name of the device.").feature("system/config"),
        row("system.clock", "system", "system", "clock timezone <timezone-name> add <offset-hours>",
            "Sets the local time zone of the device.").feature("system/clock"),
        row("system.banner", "system", "system", "header login information <banner-text>",
            "Configures the banner displayed at login.").feature("system/banner"),
        // -- vlan ---------------------------------------------------------
        row("vlan.create", "vlan", "system", "vlan <vlan-id>",
            "Creates a VLAN and enters the VLAN view. If the VLAN exists, the command enters its view directly.")
            .opens("vlan-view").feature("vlans/vlan"),
        row("vlan.name", "vlan", "vlan-view", "name <vlan-name>",
            "Assigns a name to the VLAN.").feature("vlans/vlan"),
        row("vlan.description", "vlan", "vlan-view", "description <description-text>",
            "Configures the description of the VLAN.").feature("vlans/vlan"),
        // -- interface ------------------------------------------------------
        row("interface.enter", "interface", "system", "interface <interface-id>",
            "Enters the view of the specified interface.").opens("interface-view").no_undo()
            .feature("interfaces/interface"),
        row("interface.ip", "interface", "interface-view", "ip address <ipv4-address> <mask-length>",
            "Assigns an IPv4 address to the interface.").feature("interfaces/interface/ipv4"),
        row("interface.mtu", "interface", "interface-view", "mtu <mtu-value>",
            "Sets the maximum transmission unit of the interface.").feature("interfaces/interface"),
        row("interface.desc", "interface", "interface-view", "description <description-text>",
            "Configures the description of the interface.").feature("interfaces/interface")
            .also(&["vlan-view"]),
        row("interface.shutdown", "interface", "interface-view", "shutdown",
            "Shuts down the interface administratively.").feature("interfaces/interface"),
        row("interface.pvid", "interface", "interface-view", "port default vlan <vlan-id>",
            "Sets the default VLAN of the access port.").feature("interfaces/interface/switched-vlan"),
        row("interface.linktype", "interface", "interface-view", "port link-type { access | trunk | hybrid }",
            "Sets the link type of the port.").feature("interfaces/interface/switched-vlan"),
        row("interface.trunkvlan", "interface", "interface-view", "port trunk allow-pass vlan <vlan-id>",
            "Adds the trunk port to the specified VLAN.").feature("interfaces/interface/switched-vlan"),
        row("interface.speed", "interface", "interface-view", "speed { 10 | 100 | 1000 | auto }",
            "Sets the speed of the electrical interface.").feature("interfaces/interface/ethernet"),
        row("interface.duplex", "interface", "interface-view", "duplex { full | half | auto }",
            "Sets the duplex mode of the electrical interface.").feature("interfaces/interface/ethernet"),
        row("interface.bandwidth", "interface", "interface-view", "bandwidth <bandwidth>",
            "Configures the expected bandwidth of the interface.").feature("interfaces/interface"),
        // -- spanning tree -------------------------------------------------
        row("stp.enable", "stp", "system", "stp enable",
            "Enables the spanning tree protocol globally.").feature("stp/global"),
        row("stp.mode", "stp", "system", "stp mode { stp | rstp | mstp }",
            "Sets the working mode of the spanning tree protocol.").feature("stp/global"),
        row("stp.root", "stp", "system", "stp instance <instance-id> root { primary | secondary }",
            "Configures the device as the root bridge or secondary root bridge of the spanning tree instance.")
            .feature("stp/instance"),
        row("stp.priority", "stp", "system", "stp instance <instance-id> priority <priority>",
            "Sets the priority of the device in the spanning tree instance.").feature("stp/instance"),
        row("stp.pathcost", "stp", "interface-view", "stp instance <instance-id> cost <cost>",
            "Sets the path cost of the port in the spanning tree instance.").feature("stp/interface"),
        // -- bgp -------------------------------------------------------------
        row("bgp.enter", "bgp", "system", "bgp <as-number>",
            "Enables BGP with the specified autonomous system number and enters the BGP view.")
            .opens("bgp-view").feature("protocols/bgp/global"),
        row("bgp.routerid", "bgp", "bgp-view", "router-id <ipv4-address>",
            "Sets the router identifier of the BGP process.").feature("protocols/bgp/global"),
        row("bgp.peer-as", "bgp", "bgp-view", "peer <peer-address> as-number <as-number>",
            "Creates a BGP peer and specifies its autonomous system number.")
            .feature("protocols/bgp/neighbor").also(&["bgp-af-view"]),
        row("bgp.peer-group", "bgp", "bgp-view", "peer <peer-address> group <group-name>",
            "Adds a peer to a peer group.").feature("protocols/bgp/neighbor")
            .also(&["bgp-af-view"]),
        row("bgp.group", "bgp", "bgp-view", "group <group-name> { internal | external }",
            "Creates a BGP peer group of the specified type.").feature("protocols/bgp/peer-group"),
        row("bgp.peer-desc", "bgp", "bgp-view", "peer <peer-address> description <description-text>",
            "Configures the description of a BGP peer.").feature("protocols/bgp/neighbor")
            .also(&["bgp-af-view"]),
        row("bgp.timer", "bgp", "bgp-view", "timer keepalive <keepalive-time> hold <hold-time>",
            "Sets the keepalive and hold timers of the BGP process.").feature("protocols/bgp/timers"),
        row("bgp.network", "bgp", "bgp-view", "network <ipv4-address> <mask-length>",
            "Advertises a network into the BGP routing table.").feature("protocols/bgp/network"),
        row("bgp.af-ipv4", "bgp", "bgp-view", "ipv4-family unicast",
            "Enters the BGP IPv4 unicast address family view.").opens("bgp-af-view").no_undo()
            .feature("protocols/bgp/afi-safi"),
        row("bgp.af-pref", "bgp", "bgp-af-view", "preference <preference>",
            "Sets the preference of BGP routes in the address family.").feature("protocols/bgp/afi-safi"),
        row("bgp.af-loadbalance", "bgp", "bgp-af-view", "maximum load-balancing <path-count>",
            "Sets the maximum number of equal-cost BGP routes for load balancing.")
            .feature("protocols/bgp/afi-safi"),
        row("bgp.filter", "bgp", "bgp-af-view",
            "filter-policy { <acl-number> | ip-prefix <ip-prefix-name> | acl-name <acl-name> } { import | export }",
            "Filters the routes received from or advertised to peers using an ACL or an IP prefix list.")
            .feature("protocols/bgp/policy"),
        row("bgp.peer-policy", "bgp", "bgp-af-view",
            "peer <peer-address> route-policy <route-policy-name> { import | export }",
            "Applies a routing policy to routes exchanged with the peer.")
            .feature("protocols/bgp/policy"),
        // -- ospf ------------------------------------------------------------
        row("ospf.enter", "ospf", "system", "ospf <ospf-process-id>",
            "Enables an OSPF process and enters the OSPF view.").opens("ospf-view")
            .feature("protocols/ospf/global"),
        row("ospf.routerid", "ospf", "ospf-view", "router-id <ipv4-address>",
            "Sets the router identifier of the OSPF process.").feature("protocols/ospf/global"),
        row("ospf.area", "ospf", "ospf-view", "area <area-id>",
            "Creates an OSPF area and enters the OSPF area view.").opens("ospf-area-view")
            .feature("protocols/ospf/area"),
        row("ospf.network", "ospf", "ospf-area-view", "network <ipv4-address> <wildcard-mask>",
            "Enables OSPF on interfaces whose addresses fall into the specified network segment of the area.")
            .feature("protocols/ospf/area"),
        row("ospf.silent", "ospf", "ospf-view", "silent-interface <interface-id>",
            "Suppresses the interface from sending and receiving OSPF packets.")
            .feature("protocols/ospf/interface").also(&["ospf-area-view"]),
        row("ospf.bwref", "ospf", "ospf-view", "bandwidth-reference <bandwidth>",
            "Sets the reference bandwidth used to compute interface costs.").feature("protocols/ospf/global"),
        row("ospf.defaultroute", "ospf", "ospf-view", "default-route-advertise [ always ]",
            "Advertises a default route into the OSPF routing domain.").feature("protocols/ospf/global"),
        // -- isis ------------------------------------------------------------
        row("isis.enter", "isis", "system", "isis <isis-process-id>",
            "Enables an IS-IS process and enters the IS-IS view.").opens("isis-view")
            .feature("protocols/isis/global"),
        row("isis.net", "isis", "isis-view", "network-entity <net-entity>",
            "Sets the network entity title of the IS-IS process.").feature("protocols/isis/global"),
        row("isis.level", "isis", "isis-view", "is-level { level-1 | level-1-2 | level-2 }",
            "Sets the level of the IS-IS device.").feature("protocols/isis/global"),
        // -- static routes ----------------------------------------------------
        row("route.static", "route", "system",
            "ip route-static <ipv4-address> <mask-length> <next-hop-address> [ preference <preference> ] [ tag <tag> ]",
            "Creates an IPv4 static route with an optional preference and tag.")
            .feature("routing/static"),
        // -- acl --------------------------------------------------------------
        row("acl.enter", "acl", "system", "acl number <acl-number>",
            "Creates a numbered ACL and enters the ACL view.").opens("acl-view")
            .feature("acl/acl-set"),
        row("acl.rule", "acl", "acl-view",
            "rule <rule-id> { permit | deny } [ source <ipv4-address> <wildcard-mask> ]",
            "Creates an ACL rule that permits or denies packets from the specified source.")
            .feature("acl/acl-entry"),
        row("acl.step", "acl", "acl-view", "step <step-value>",
            "Sets the increment between automatically numbered ACL rules.").feature("acl/acl-set"),
        // -- vrrp -------------------------------------------------------------
        row("vrrp.vip", "vrrp", "interface-view", "vrrp vrid <vrid> virtual-ip <virtual-address>",
            "Creates a VRRP group on the interface and assigns a virtual IPv4 address.")
            .feature("vrrp/group"),
        row("vrrp.priority", "vrrp", "interface-view", "vrrp vrid <vrid> priority <priority>",
            "Sets the priority of the device in the VRRP group.").feature("vrrp/group"),
        // -- dhcp -------------------------------------------------------------
        row("dhcp.enable", "dhcp", "system", "dhcp enable",
            "Enables DHCP globally.").feature("dhcp/global"),
        row("dhcp.pool", "dhcp", "system", "ip pool <pool-name>",
            "Creates a global DHCP address pool and enters the pool view.").opens("dhcp-pool-view")
            .feature("dhcp/pool"),
        row("dhcp.network", "dhcp", "dhcp-pool-view", "network <ipv4-address> mask <mask-length>",
            "Specifies the range of addresses the pool allocates.").feature("dhcp/pool"),
        row("dhcp.gateway", "dhcp", "dhcp-pool-view", "gateway-list <ipv4-address>",
            "Specifies the gateway address advertised to pool clients.").feature("dhcp/pool"),
        row("dhcp.lease", "dhcp", "dhcp-pool-view", "lease day <lease-days>",
            "Sets the lease duration of addresses in the pool.").feature("dhcp/pool"),
        // -- management-plane services -----------------------------------------
        row("ntp.server", "ntp", "system", "ntp unicast-server <ipv4-address> [ version <version-number> ]",
            "Configures an NTP server for time synchronisation.").feature("system/ntp"),
        row("snmp.community", "snmp", "system", "snmp-agent community { read | write } <community-name>",
            "Configures an SNMP community with read or write permission.").feature("system/snmp"),
        row("snmp.target", "snmp", "system",
            "snmp-agent target-host <ipv4-address> params securityname <security-name>",
            "Configures the target host that receives SNMP notifications.").feature("system/snmp"),
        row("syslog.host", "syslog", "system", "info-center loghost <ipv4-address> [ facility <facility-name> ]",
            "Configures a log host that receives syslog messages.").feature("system/logging"),
        // -- aaa ----------------------------------------------------------------
        row("aaa.enter", "aaa", "system", "aaa",
            "Enters the AAA view.").opens("aaa-view").no_undo().feature("system/aaa"),
        row("aaa.user", "aaa", "aaa-view", "local-user <user-name> password cipher <password>",
            "Creates a local user and sets its password in cipher text.").feature("system/aaa/user"),
        row("aaa.privilege", "aaa", "aaa-view", "local-user <user-name> privilege level <privilege-level>",
            "Sets the privilege level of the local user.").feature("system/aaa/user"),
        row("aaa.domain", "aaa", "aaa-view", "domain <domain-name>",
            "Creates an authentication domain.").feature("system/aaa/domain"),
        // -- qos ------------------------------------------------------------------
        row("qos.classifier", "qos", "system", "traffic classifier <classifier-name>",
            "Creates a traffic classifier and enters its view.").opens("classifier-view")
            .feature("qos/classifier"),
        row("qos.match", "qos", "classifier-view", "if-match acl <acl-number>",
            "Adds a matching rule on the specified ACL to the classifier.").feature("qos/classifier"),
        row("qos.behavior", "qos", "system", "traffic behavior <behavior-name>",
            "Creates a traffic behavior and enters its view.").opens("behavior-view")
            .feature("qos/behavior"),
        row("qos.remark", "qos", "behavior-view", "remark dscp <dscp-value>",
            "Re-marks the DSCP value of packets matching the behavior.").feature("qos/behavior"),
        row("qos.queue", "qos", "interface-view", "qos queue <queue-id> shaping <bandwidth>",
            "Shapes the specified queue of the interface to the given rate.").feature("qos/interface"),
        // -- mpls -----------------------------------------------------------------
        row("mpls.lsrid", "mpls", "system", "mpls lsr-id <lsr-id>",
            "Sets the label switching router identifier of the device.").feature("mpls/global"),
        row("mpls.enable", "mpls", "system", "mpls",
            "Enables MPLS globally and enters the MPLS view.").opens("mpls-view").feature("mpls/global"),
        // -- mirroring / lldp ------------------------------------------------------
        row("mirror.observe", "mirror", "system", "observe-port <port-index> interface <interface-id>",
            "Configures the observing port of the mirroring session.").feature("mirror/session"),
        row("lldp.enable", "lldp", "system", "lldp enable",
            "Enables LLDP globally.").feature("lldp/global"),
        // -- display (operational; outside UDM scope) -------------------------------
        row("display.vlan", "display", "system", "display vlan [ <vlan-id> ]",
            "Displays information about all VLANs or the specified VLAN.").no_undo(),
        row("display.current", "display", "system", "display current-configuration",
            "Displays the configuration currently running on the device.").no_undo(),
        row("display.bgp-peer", "display", "system", "display bgp peer [ <peer-address> ] [ verbose ]",
            "Displays information about BGP peers.").no_undo(),
        row("display.interface", "display", "system", "display interface [ <interface-id> ]",
            "Displays the status of interfaces.").no_undo(),
        row("display.ospf", "display", "system", "display ospf peer",
            "Displays information about OSPF neighbors.").no_undo(),
        row("display.acl", "display", "system", "display acl { <acl-number> | all }",
            "Displays the configuration of the specified ACL or all ACLs.").no_undo(),
        row("display.stp", "display", "system", "display stp brief",
            "Displays brief spanning tree status information.").no_undo(),
        row("display.version", "display", "system", "display version",
            "Displays the software version of the device.").no_undo(),
    ]
}

/// The base view hierarchy.
fn base_views() -> Vec<ViewDef> {
    let v = |key: &str, parent: &str, opener: Option<&str>| ViewDef {
        key: key.to_string(),
        parent: parent.to_string(),
        opener: opener.map(str::to_string),
    };
    vec![
        v("system", "system", None),
        v("vlan-view", "system", Some("vlan.create")),
        v("interface-view", "system", Some("interface.enter")),
        v("bgp-view", "system", Some("bgp.enter")),
        v("bgp-af-view", "bgp-view", Some("bgp.af-ipv4")),
        v("ospf-view", "system", Some("ospf.enter")),
        v("ospf-area-view", "ospf-view", Some("ospf.area")),
        v("isis-view", "system", Some("isis.enter")),
        v("acl-view", "system", Some("acl.enter")),
        v("aaa-view", "system", Some("aaa.enter")),
        v("dhcp-pool-view", "system", Some("dhcp.pool")),
        v("classifier-view", "system", Some("qos.classifier")),
        v("behavior-view", "system", Some("qos.behavior")),
        v("mpls-view", "system", Some("mpls.enable")),
    ]
}

impl Catalog {
    /// The hand-written base catalog (~80 commands, 14 views).
    pub fn base() -> Catalog {
        let lexicon = param_lexicon();
        let commands = base_rows()
            .into_iter()
            .map(|r| {
                let params = template_params(r.template)
                    .into_iter()
                    .map(|name| {
                        debug_assert!(
                            lexicon.contains_key(name.as_str()),
                            "parameter <{name}> of {} missing from lexicon",
                            r.key
                        );
                        let (desc, ty) = lexicon
                            .get(name.as_str())
                            .copied()
                            .unwrap_or(("undocumented parameter", "string"));
                        CatalogParam {
                            name,
                            description: desc.to_string(),
                            value_type: ty.to_string(),
                        }
                    })
                    .collect();
                CatalogCommand {
                    key: r.key.to_string(),
                    group: r.group.to_string(),
                    template: r.template.to_string(),
                    has_undo: r.has_undo,
                    func: r.func.to_string(),
                    view: r.view.to_string(),
                    also_views: r.also_views.iter().map(|v| v.to_string()).collect(),
                    opens: r.opens.map(str::to_string),
                    params,
                    feature_path: r.feature_path.to_string(),
                }
            })
            .collect();
        Catalog {
            commands,
            views: base_views(),
        }
    }

    /// The base catalog plus `extra` procedurally minted filler commands.
    ///
    /// Fillers are deterministic in their index (no RNG): command *i*
    /// combines a feature word, an object word and an attribute word into
    /// a schema like `sflow session <session-id> timeout <timeout-value>`,
    /// with generated (but grammatical) descriptions. Every eighth filler
    /// family opens a generated view and places its subsequent siblings
    /// inside, so large catalogs also have deep-ish hierarchies.
    pub fn with_scale(extra: usize) -> Catalog {
        let mut cat = Catalog::base();
        let mut current_view: Option<String> = None;
        let mut prev_view: Option<String> = None;
        for i in 0..extra {
            let feat = FEATURE_WORDS[i % FEATURE_WORDS.len()];
            let obj = OBJECT_WORDS[(i / FEATURE_WORDS.len()) % OBJECT_WORDS.len()];
            let attr = ATTR_WORDS[i % ATTR_WORDS.len()];
            let variant = i / (FEATURE_WORDS.len() * OBJECT_WORDS.len());
            let suffix = if variant == 0 {
                String::new()
            } else {
                format!("-{variant}")
            };
            let key = format!("gen.{feat}.{obj}{suffix}.{attr}");
            if i % 8 == 0 {
                // Opener command: `sflow session <session-id>` entering a view.
                let view_key = format!("{feat}-{obj}{suffix}-view");
                let opener_key = format!("gen.{feat}.{obj}{suffix}.enter");
                let id_param = CatalogParam {
                    name: format!("{obj}-id"),
                    description: format!(
                        "Specifies the identifier of the {feat} {obj}. The value is an integer."
                    ),
                    value_type: "uint32".to_string(),
                };
                cat.commands.push(CatalogCommand {
                    key: opener_key.clone(),
                    group: feat.to_string(),
                    template: format!("{feat} {obj}{suffix} <{obj}-id>"),
                    has_undo: true,
                    func: format!("Creates a {feat} {obj} and enters the {feat} {obj} view."),
                    view: "system".to_string(),
                    also_views: Vec::new(),
                    opens: Some(view_key.clone()),
                    params: vec![id_param],
                    feature_path: String::new(),
                });
                cat.views.push(ViewDef {
                    key: view_key.clone(),
                    parent: "system".to_string(),
                    opener: Some(opener_key),
                });
                prev_view = current_view.take();
                current_view = Some(view_key);
            }
            let view = current_view.clone().unwrap_or_else(|| "system".to_string());
            // Every third filler also works under the previously generated
            // view, so large models reproduce the paper's CLI-view-pair
            // multiplicity.
            let also_views = if i % 3 == 2 {
                prev_view
                    .clone()
                    .filter(|v| *v != view)
                    .into_iter()
                    .collect()
            } else {
                Vec::new()
            };
            let attr_param = CatalogParam {
                name: format!("{attr}-value"),
                description: format!(
                    "Specifies the {attr} of the {feat} {obj}. The value is an integer."
                ),
                value_type: "uint32".to_string(),
            };
            cat.commands.push(CatalogCommand {
                key,
                group: feat.to_string(),
                template: format!("{attr} <{attr}-value>"),
                has_undo: true,
                func: format!("Sets the {attr} of the {feat} {obj}."),
                view,
                also_views,
                opens: None,
                params: vec![attr_param],
                feature_path: String::new(),
            });
        }
        cat
    }

    /// Look up a command by key.
    pub fn command(&self, key: &str) -> Option<&CatalogCommand> {
        self.commands.iter().find(|c| c.key == key)
    }

    /// Look up a view by key.
    pub fn view(&self, key: &str) -> Option<&ViewDef> {
        self.views.iter().find(|v| v.key == key)
    }

    /// Commands working under view `key` (primary or additional).
    pub fn commands_in_view<'a>(
        &'a self,
        key: &'a str,
    ) -> impl Iterator<Item = &'a CatalogCommand> + 'a {
        self.commands
            .iter()
            .filter(move |c| c.view == key || c.also_views.iter().any(|v| v == key))
    }

    /// Total CLI-view pair count implied by the catalog (the truth the
    /// VDM construction should recover).
    pub fn cli_view_pairs(&self) -> usize {
        self.commands.iter().map(|c| 1 + c.also_views.len()).sum()
    }

    /// The chain of opener commands that leads from the root view to
    /// `view` (outermost first). Empty for the root.
    pub fn opener_chain(&self, view: &str) -> Vec<&CatalogCommand> {
        let mut chain = Vec::new();
        let mut cur = view.to_string();
        while cur != "system" {
            let Some(vdef) = self.view(&cur) else { break };
            let Some(opener_key) = &vdef.opener else {
                break;
            };
            let Some(opener) = self.command(opener_key) else {
                break;
            };
            chain.push(opener);
            cur = vdef.parent.clone();
        }
        chain.reverse();
        chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nassim_syntax::parse_template;

    #[test]
    fn base_catalog_is_well_formed() {
        let cat = Catalog::base();
        assert!(
            cat.commands.len() >= 70,
            "only {} commands",
            cat.commands.len()
        );
        assert!(cat.views.len() >= 14);
        // Keys unique.
        let mut keys: Vec<&str> = cat.commands.iter().map(|c| c.key.as_str()).collect();
        keys.sort_unstable();
        let before = keys.len();
        keys.dedup();
        assert_eq!(before, keys.len(), "duplicate command keys");
    }

    #[test]
    fn every_template_parses_under_the_formal_grammar() {
        let cat = Catalog::with_scale(200);
        for c in &cat.commands {
            assert!(
                parse_template(&c.template).is_ok(),
                "catalog template of {} fails to parse: {}",
                c.key,
                c.template
            );
        }
    }

    #[test]
    fn every_view_reference_resolves() {
        let cat = Catalog::with_scale(100);
        for c in &cat.commands {
            assert!(
                cat.view(&c.view).is_some(),
                "{} has unknown view {}",
                c.key,
                c.view
            );
            if let Some(opens) = &c.opens {
                assert!(
                    cat.view(opens).is_some(),
                    "{} opens unknown view {opens}",
                    c.key
                );
            }
        }
        for v in &cat.views {
            assert!(
                cat.view(&v.parent).is_some(),
                "view {} has unknown parent",
                v.key
            );
            if let Some(op) = &v.opener {
                let opener = cat.command(op).expect("opener exists");
                assert_eq!(opener.opens.as_deref(), Some(v.key.as_str()));
            }
        }
    }

    #[test]
    fn every_param_has_a_description() {
        let cat = Catalog::with_scale(50);
        for c in &cat.commands {
            for p in &c.params {
                assert!(
                    !p.description.is_empty(),
                    "{}: param {} undocumented",
                    c.key,
                    p.name
                );
            }
        }
    }

    #[test]
    fn opener_chain_walks_nested_views() {
        let cat = Catalog::base();
        let chain = cat.opener_chain("bgp-af-view");
        let keys: Vec<&str> = chain.iter().map(|c| c.key.as_str()).collect();
        assert_eq!(keys, vec!["bgp.enter", "bgp.af-ipv4"]);
        assert!(cat.opener_chain("system").is_empty());
    }

    #[test]
    fn scale_adds_the_requested_commands() {
        let base = Catalog::base().commands.len();
        let scaled = Catalog::with_scale(500);
        // 500 fillers plus one opener per 8 fillers.
        assert_eq!(scaled.commands.len(), base + 500 + 500 / 8 + 1);
    }

    #[test]
    fn scaling_is_deterministic() {
        let a = Catalog::with_scale(100);
        let b = Catalog::with_scale(100);
        assert_eq!(a.commands, b.commands);
        assert_eq!(a.views, b.views);
    }

    #[test]
    fn filler_keys_are_unique_at_large_scale() {
        let cat = Catalog::with_scale(3000);
        let mut keys: Vec<&str> = cat.commands.iter().map(|c| c.key.as_str()).collect();
        keys.sort_unstable();
        let before = keys.len();
        keys.dedup();
        assert_eq!(before, keys.len());
    }

    #[test]
    fn paper_example_command_present() {
        // The §5.2 toy example is a real catalog command.
        let cat = Catalog::base();
        let c = cat.command("bgp.filter").unwrap();
        assert!(c.template.starts_with("filter-policy {"));
        assert_eq!(c.params.len(), 3);
    }
}
