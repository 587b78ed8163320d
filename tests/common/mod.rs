//! What more than one root test builds.

use netqos::spec::{generate_spec, parse_and_validate, GenParams, SpecModel};

/// A generated access network of `hosts` hosts with its site switches
/// given SNMP agents, so every cross-access-point qospath is evaluable
/// (as generated, only hosts run agents).
pub fn managed_access_network(hosts: usize, qos_paths: usize) -> SpecModel {
    let src = generate_spec(&GenParams {
        hosts,
        qos_paths,
        ..GenParams::default()
    });
    let mut out = String::with_capacity(src.len() + 1024);
    for line in src.lines() {
        out.push_str(line);
        out.push('\n');
        let site = line
            .strip_prefix("device site")
            .and_then(|rest| rest.strip_suffix(" switch {"))
            .and_then(|n| n.parse::<u32>().ok());
        if let Some(n) = site {
            let agent = format!("    address 10.240.0.{};\n", n + 1);
            out.push_str(&agent);
            out.push_str("    snmp community \"public\";\n");
        }
    }
    parse_and_validate(&out).expect("generated spec validates")
}
