//! Port localization for ACL differences — extending header localization
//! to another packet dimension, as §4 suggests ("extend HeaderLocalize to
//! provide exhaustive information across multiple parts").
//!
//! The difference predicate is projected onto the 16 destination- (or
//! source-) port variables; the resulting boolean function over a 16-bit
//! integer is converted to its **minimal union of inclusive intervals** by
//! walking the BDD once: each cube over big-endian port bits denotes an
//! aligned interval, and adjacent intervals merge in a final pass.

use campion_bdd::Bdd;
use campion_net::PortRange;
use campion_symbolic::PacketSpace;

/// Project a difference onto the destination-port dimension and return the
/// minimal interval union (`None` = ports unconstrained).
pub fn dst_port_localize(space: &mut PacketSpace, input: Bdd) -> Option<Vec<PortRange>> {
    port_localize(space, input, campion_symbolic::packet_dport_vars())
}

fn port_localize(
    space: &mut PacketSpace,
    input: Bdd,
    vars: std::ops::Range<u32>,
) -> Option<Vec<PortRange>> {
    // Quantify away everything but the chosen port run.
    let mut others: Vec<u32> = (0..vars.start).collect();
    others.extend(vars.end..campion_symbolic::packet_num_vars());
    let projected = space.manager.exists(input, &others);
    if space.manager.is_true(projected) {
        return None; // unconstrained
    }
    // Each satisfying cube over big-endian bits is an aligned interval:
    // fixed high bits select the base, free low bits... in general cubes
    // may fix non-contiguous bits; enumerate each cube into one or more
    // intervals by expanding only the *interior* free bits (rare: BDD cubes
    // over comparisons are contiguous suffix-free in practice, and the
    // expansion is bounded by the cube count of a 16-bit function).
    let mut points: Vec<(u32, u32)> = Vec::new();
    for cube in space.manager.sat_cubes(projected) {
        let bits: Vec<Option<bool>> = vars.clone().map(|v| cube.get(v)).collect();
        expand_cube(&bits, 0, 0, &mut points);
    }
    points.sort_unstable();
    // Merge overlapping/adjacent intervals.
    let mut merged: Vec<(u32, u32)> = Vec::new();
    for (lo, hi) in points {
        match merged.last_mut() {
            Some((_, last_hi)) if lo <= last_hi.saturating_add(1) => {
                *last_hi = (*last_hi).max(hi);
            }
            _ => merged.push((lo, hi)),
        }
    }
    Some(
        merged
            .into_iter()
            .map(|(lo, hi)| PortRange::new(lo as u16, hi as u16))
            .collect(),
    )
}

/// Expand a (possibly non-suffix) cube over big-endian bits into aligned
/// intervals: fixed bits accumulate into `prefix`; a free bit followed by
/// fixed bits forks.
fn expand_cube(bits: &[Option<bool>], idx: usize, prefix: u32, out: &mut Vec<(u32, u32)>) {
    if idx == bits.len() {
        out.push((prefix, prefix));
        return;
    }
    // If all remaining bits are free, the cube is one aligned interval.
    if bits[idx..].iter().all(Option::is_none) {
        let span = (1u32 << (bits.len() - idx)) - 1;
        let lo = prefix << (bits.len() - idx);
        out.push((lo, lo + span));
        return;
    }
    match bits[idx] {
        Some(b) => expand_cube(bits, idx + 1, (prefix << 1) | u32::from(b), out),
        None => {
            expand_cube(bits, idx + 1, prefix << 1, out);
            expand_cube(bits, idx + 1, (prefix << 1) | 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use campion_cfg::parse_config;
    use campion_ir::lower;

    use crate::semantic::{acl_paths, semantic_diff};

    fn diff_input(cisco1: &str, cisco2: &str) -> (PacketSpace, Vec<Bdd>) {
        let a = lower(&parse_config(cisco1).expect("parse")).expect("lower");
        let b = lower(&parse_config(cisco2).expect("parse")).expect("lower");
        let mut space = PacketSpace::new();
        let u = space.universe();
        let p1 = acl_paths(&mut space, &a.acls["F"], u);
        let p2 = acl_paths(&mut space, &b.acls["F"], u);
        let diffs = semantic_diff(&mut space.manager, &p1, &p2);
        let inputs = diffs.iter().map(|d| d.input).collect();
        (space, inputs)
    }

    #[test]
    fn single_port_difference() {
        let (mut space, inputs) = diff_input(
            "ip access-list extended F\n\
             \x20permit tcp any any eq 443\n\
             \x20deny ip any any\n",
            "ip access-list extended F\n\
             \x20permit tcp any any eq 443\n\
             \x20permit tcp any any eq 8443\n\
             \x20deny ip any any\n",
        );
        assert_eq!(inputs.len(), 1);
        let ports = dst_port_localize(&mut space, inputs[0]).expect("constrained");
        assert_eq!(ports, vec![PortRange::exact(8443)]);
    }

    #[test]
    fn range_difference_is_minimal() {
        let (mut space, inputs) = diff_input(
            "ip access-list extended F\n\
             \x20permit tcp any any range 1000 2000\n\
             \x20deny ip any any\n",
            "ip access-list extended F\n\
             \x20permit tcp any any range 1000 2500\n\
             \x20deny ip any any\n",
        );
        assert_eq!(inputs.len(), 1);
        let ports = dst_port_localize(&mut space, inputs[0]).expect("constrained");
        assert_eq!(
            ports,
            vec![PortRange::new(2001, 2500)],
            "merged to one interval"
        );
    }

    #[test]
    fn unconstrained_when_difference_is_address_only() {
        let (mut space, inputs) = diff_input(
            "ip access-list extended F\n\
             \x20permit ip 10.0.0.0 0.0.255.255 any\n\
             \x20deny ip any any\n",
            "ip access-list extended F\n\
             \x20deny ip any any\n",
        );
        assert_eq!(inputs.len(), 1);
        assert!(dst_port_localize(&mut space, inputs[0]).is_none());
    }

    #[test]
    fn disjoint_intervals_stay_disjoint() {
        let (mut space, inputs) = diff_input(
            "ip access-list extended F\n\
             \x20deny ip any any\n",
            "ip access-list extended F\n\
             \x20permit udp any any eq 53\n\
             \x20permit udp any any eq 123\n\
             \x20deny ip any any\n",
        );
        // Two extra permits on the second side, each a distinct diff class.
        let mut all_ports = Vec::new();
        for i in &inputs {
            if let Some(ps) = dst_port_localize(&mut space, *i) {
                all_ports.extend(ps);
            }
        }
        all_ports.sort();
        assert_eq!(all_ports, vec![PortRange::exact(53), PortRange::exact(123)]);
    }
}
