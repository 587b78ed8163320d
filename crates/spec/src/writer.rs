//! Pretty-printer: turns an AST back into canonical specification text.
//!
//! `parse(write_spec(parse(src)))` is identical to `parse(src)` (asserted
//! by property tests), so the writer can be used to normalize hand-written
//! files and to persist programmatically built topologies.

use crate::ast::*;

fn fmt_bandwidth(bps: u64) -> String {
    if bps >= 1_000_000_000 && bps.is_multiple_of(1_000_000_000) {
        format!("{}Gbps", bps / 1_000_000_000)
    } else if bps >= 1_000_000 && bps.is_multiple_of(1_000_000) {
        format!("{}Mbps", bps / 1_000_000)
    } else if bps >= 1_000 && bps.is_multiple_of(1_000) {
        format!("{}Kbps", bps / 1_000)
    } else {
        format!("{bps}bps")
    }
}

/// `fraction` as a percentage the lexer reads back: the integer when it
/// is one (`0.57 * 100.0` is `56.99999999999999`, which the lexer
/// refuses).
fn fmt_percent(fraction: f64) -> f64 {
    let p = fraction * 100.0;
    if p.round() / 100.0 == fraction {
        p.round()
    } else {
        p
    }
}

/// Renders a specification file as canonical text.
pub fn write_spec(file: &SpecFile) -> String {
    let mut out = String::new();
    for node in &file.nodes {
        let header = match node.kind {
            netqos_topology::NodeKind::Host => format!("host {}", node.name),
            kind => format!("device {} {}", node.name, kind.name()),
        };
        out.push_str(&header);
        out.push_str(" {\n");
        if let Some(os) = &node.os {
            out.push_str(&format!("    os \"{os}\";\n"));
        }
        if let Some(addr) = &node.address {
            out.push_str(&format!("    address {addr};\n"));
        }
        if let Some(c) = &node.snmp_community {
            out.push_str(&format!("    snmp community \"{c}\";\n"));
        }
        if let Some(s) = node.default_speed {
            out.push_str(&format!("    speed {};\n", fmt_bandwidth(s)));
        }
        for iface in &node.interfaces {
            match iface.speed_bps {
                Some(s) => out.push_str(&format!(
                    "    interface {} {{ speed {}; }}\n",
                    iface.local_name,
                    fmt_bandwidth(s)
                )),
                None => out.push_str(&format!("    interface {};\n", iface.local_name)),
            }
        }
        out.push_str("}\n\n");
    }
    for c in &file.connections {
        out.push_str(&format!("connection {} <-> {};\n", c.a, c.b));
    }
    if !file.connections.is_empty() && !file.applications.is_empty() {
        out.push('\n');
    }
    for a in &file.applications {
        if a.pinned {
            out.push_str(&format!(
                "application {} on {} {{ pinned; }}\n",
                a.name, a.host
            ));
        } else {
            out.push_str(&format!("application {} on {};\n", a.name, a.host));
        }
    }
    if !file.connections.is_empty() && !file.qos_paths.is_empty() {
        out.push('\n');
    }
    for q in &file.qos_paths {
        out.push_str(&format!(
            "qospath {} from {} to {} {{\n",
            q.name, q.from, q.to
        ));
        if let Some(v) = q.min_available_bps {
            out.push_str(&format!("    min_available {};\n", fmt_bandwidth(v)));
        }
        if let Some(u) = q.max_utilization {
            out.push_str(&format!("    max_utilization {}%;\n", fmt_percent(u)));
        }
        if let Some(app) = &q.application {
            out.push_str(&format!("    application {app};\n"));
        }
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use netqos_topology::NodeKind;

    #[test]
    fn bandwidth_formatting() {
        assert_eq!(fmt_bandwidth(100_000_000), "100Mbps");
        assert_eq!(fmt_bandwidth(10_000), "10Kbps");
        assert_eq!(fmt_bandwidth(2_000_000_000), "2Gbps");
        assert_eq!(fmt_bandwidth(1234), "1234bps");
    }

    #[test]
    fn round_trip_sample() {
        let src = r#"
            host L {
                os "Linux";
                address 10.0.0.1;
                snmp community "public";
                interface eth0 { speed 100Mbps; }
            }
            device hubby hub { speed 10Mbps; interface h1; interface h2; }
            connection L.eth0 <-> hubby.h1;
            qospath t from L to L { min_available 1Mbps; max_utilization 75%; }
        "#;
        let ast1 = parse(src).unwrap();
        let text = write_spec(&ast1);
        let ast2 = parse(&text).unwrap();
        // Spans differ; compare the semantic content.
        assert_eq!(ast1.nodes.len(), ast2.nodes.len());
        for (a, b) in ast1.nodes.iter().zip(&ast2.nodes) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.os, b.os);
            assert_eq!(a.address, b.address);
            assert_eq!(a.snmp_community, b.snmp_community);
            assert_eq!(a.default_speed, b.default_speed);
            assert_eq!(
                a.interfaces
                    .iter()
                    .map(|i| (&i.local_name, i.speed_bps))
                    .collect::<Vec<_>>(),
                b.interfaces
                    .iter()
                    .map(|i| (&i.local_name, i.speed_bps))
                    .collect::<Vec<_>>()
            );
        }
        assert_eq!(ast1.connections[0].a, ast2.connections[0].a);
        assert_eq!(
            ast1.qos_paths[0].min_available_bps,
            ast2.qos_paths[0].min_available_bps
        );
        assert_eq!(
            ast1.qos_paths[0].max_utilization,
            ast2.qos_paths[0].max_utilization
        );
    }

    #[test]
    fn every_integer_percentage_reads_back() {
        for p in 1..=100u32 {
            let src = format!("qospath q from a to b {{ max_utilization {p}%; }}");
            let ast = parse(&src).unwrap();
            let text = write_spec(&ast);
            assert!(text.contains(&format!(" {p}%;")), "{p}%: {text}");
            assert_eq!(parse(&text).unwrap().qos_paths, ast.qos_paths, "{p}%");
        }
    }

    #[test]
    fn writes_device_kinds() {
        let mut f = SpecFile::default();
        f.nodes.push(NodeDecl::new("s", NodeKind::Switch));
        f.nodes.push(NodeDecl::new("h", NodeKind::Hub));
        let text = write_spec(&f);
        assert!(text.contains("device s switch"));
        assert!(text.contains("device h hub"));
    }
}
