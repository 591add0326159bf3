//! Workload inputs. Everything derives from the workload seed; the program
//! only ever sees the generated configurations. Each pair's generator seed
//! is kept so a run can print it and any pair can be regenerated alone.

use std::collections::BTreeMap;

use campion_fleet::gen::PERTURB_LINE;
use campion_fleet::SnapshotInput;
use campion_fuzz::inject::{draw_edit, DivClass, Edit};
use campion_fuzz::scenario::{mask, AclRule, Clause, PlEntry, PrefixList};
use campion_fuzz::{render_cisco, render_juniper, rmap_decide, RouteWitness, Scenario};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// SplitMix64 finalizer: derives independent generator seeds from the
/// workload seed and a tag.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One injected route-map divergence and the route that separates the two
/// sides, verified with the scenario's own interpreter.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// What was changed.
    pub edit: String,
    /// A route the two sides treat differently.
    pub witness: RouteWitness,
}

/// One router pair of a CLI workload.
#[derive(Debug, Clone)]
pub struct Pair {
    /// Label used in file names and messages.
    pub name: String,
    /// First (Cisco) configuration.
    pub cisco: String,
    /// Second (Juniper) configuration.
    pub juniper: String,
    /// Injected route-map divergences (route-map workloads only).
    pub divergences: Vec<Divergence>,
}

/// The pairs of a CLI workload plus the control pair, which has no
/// injected difference. `notes` records every generator seed tried.
#[derive(Debug, Clone)]
pub struct CliInputs {
    /// Timed pairs, compared round-robin.
    pub pairs: Vec<Pair>,
    /// Must compare equivalent.
    pub control: Pair,
    /// Provenance lines: generator seeds and any rejected ones.
    pub notes: Vec<String>,
}

fn panic_text(e: &(dyn std::any::Any + Send)) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".to_string())
}

/// Generator seeds tried per input before giving up.
const SEED_ATTEMPTS: u64 = 8;

/// `capirca_acl_pair` asserts when too few rules are probe-reachable for
/// the requested differences (an early `tcp any any` shadows most probes,
/// so it depends on the seed, not the size). Each failing seed is reported
/// and the next derived seed is tried; running out of seeds is an error.
pub fn capirca(
    rules: usize,
    diffs: usize,
    seed: u64,
    notes: &mut Vec<String>,
) -> Result<(u64, String, String), String> {
    for attempt in 0..SEED_ATTEMPTS {
        let s = mix(seed, attempt);
        match std::panic::catch_unwind(|| campion_gen::capirca_acl_pair(rules, diffs, s)) {
            Ok((c, j)) => return Ok((s, c, j)),
            Err(e) => notes.push(format!(
                "rejected generator seed {s}: capirca_acl_pair({rules}, {diffs}, {s}) panicked: {}",
                panic_text(e.as_ref())
            )),
        }
    }
    Err(format!(
        "capirca_acl_pair({rules}, {diffs}, ·) failed for {SEED_ATTEMPTS} seeds derived from {seed}"
    ))
}

/// `acl-10k`: Capirca-style ACL pairs at the paper's §5.4 size.
pub const ACL_RULES: usize = 10_000;
/// Injected differences per `acl-10k` pair.
pub const ACL_DIFFS: usize = 10;
/// Pairs per `acl-10k` run.
pub const ACL_PAIRS: usize = 3;

/// The `acl-10k` inputs for `seed`.
pub fn acl_inputs(seed: u64) -> Result<CliInputs, String> {
    let mut notes = Vec::new();
    let mut pair = |name: String, diffs: usize, tag: u64| -> Result<Pair, String> {
        let (s, cisco, juniper) = capirca(ACL_RULES, diffs, mix(seed, tag), &mut notes)?;
        notes.push(format!(
            "pair {name}: capirca_acl_pair({ACL_RULES}, {diffs}, {s})"
        ));
        Ok(Pair {
            name,
            cisco,
            juniper,
            divergences: Vec::new(),
        })
    };
    let pairs = (0..ACL_PAIRS)
        .map(|i| pair(format!("acl{i}"), ACL_DIFFS, i as u64))
        .collect::<Result<Vec<_>, _>>()?;
    let control = pair("control".to_string(), 0, 1000)?;
    Ok(CliInputs {
        pairs,
        control,
        notes,
    })
}

/// Route-map scenario size: `lists × entries` prefix-list entries and
/// `clauses` clauses (plus the final catch-all).
#[derive(Debug, Clone, Copy)]
pub struct RmapSize {
    /// Prefix lists.
    pub lists: usize,
    /// Entries per list.
    pub entries: usize,
    /// Route-map clauses before the catch-all.
    pub clauses: usize,
    /// Single-atom community definitions.
    pub comms: usize,
}

/// `rmap-10k`: 10 000 prefix-list entries behind a deep clause chain.
pub const RMAP_SIZE: RmapSize = RmapSize {
    lists: 100,
    entries: 100,
    clauses: 60,
    comms: 30,
};
/// Pairs per `rmap-10k` run: a pair's cost depends on how its random
/// prefix lists overlap, so a run spreads over several to keep its median
/// steady from seed to seed.
pub const RMAP_PAIRS: usize = 6;

/// A fixed-size scenario: unlike `campion_fuzz::generate`, whose counts are
/// drawn up to a maximum, every count here is exact, and entries are /16 to
/// /28 (short random prefixes overlap unpredictably and made a pair's cost
/// swing by 2× between seeds), so the cost of a pair varies little between
/// seeds. The ACL is a lone catch-all, leaving the route map as the only
/// semantic component.
pub fn rmap_scenario(rng: &mut StdRng, size: RmapSize) -> Scenario {
    let plists = (0..size.lists)
        .map(|_| PrefixList {
            entries: (0..size.entries)
                .map(|_| {
                    let len: u8 = rng.gen_range(16u8..=28);
                    let addr = rng.gen::<u32>() & mask(len);
                    let le = rng.gen_bool(0.5).then(|| rng.gen_range(len + 1..=32));
                    PlEntry { addr, len, le }
                })
                .collect(),
        })
        .collect();
    let comms = (0..size.comms)
        .map(|_| (rng.gen_range(1u16..=65000), rng.gen_range(1u16..=65000)))
        .collect();
    // Every clause but the last matches a prefix list, so no early
    // catch-all shadows the rest of the chain.
    let mut clauses: Vec<Clause> = (0..size.clauses)
        .map(|_| {
            let permit = rng.gen_bool(0.6);
            Clause {
                permit,
                plist: Some(rng.gen_range(0..size.lists)),
                comm: rng.gen_bool(0.3).then(|| rng.gen_range(0..size.comms)),
                local_pref: (permit && rng.gen_bool(0.5)).then(|| rng.gen_range(50u32..=400)),
            }
        })
        .collect();
    clauses.push(Clause::catch_all(rng.gen_bool(0.5)));
    Scenario {
        acl: vec![AclRule::catch_all(true)],
        plists,
        comms,
        clauses,
    }
}

/// Do the two sides treat route `w` differently (action or LOCAL_PREF)?
pub fn separates(base: &Scenario, mutated: &Scenario, w: &RouteWitness) -> bool {
    let (v1, v2) = (rmap_decide(base, w), rmap_decide(mutated, w));
    v1.accept != v2.accept || (v1.accept && v1.local_pref != v2.local_pref)
}

/// Candidate witnesses aimed at an edit: members at the bounds of the
/// prefix-list entries of every clause the edit touches, with each
/// community value that clause can see on either side.
fn route_candidates(base: &Scenario, mutated: &Scenario, edit: &Edit) -> Vec<RouteWitness> {
    let touched: Vec<usize> = base
        .clauses
        .iter()
        .enumerate()
        .filter(|(i, c)| match edit {
            Edit::PlistBound { plist, .. } => c.plist == Some(*plist),
            Edit::ClauseFlip { clause } => i == clause,
            Edit::CommEdit { comm, .. } => c.comm == Some(*comm),
            _ => false,
        })
        .map(|(i, _)| i)
        .collect();
    let mut out = Vec::new();
    for ci in touched {
        let c = &base.clauses[ci];
        let comm_sets: Vec<Vec<(u16, u16)>> = match c.comm {
            Some(k) => vec![vec![base.comms[k]], vec![mutated.comms[k]]],
            None => vec![Vec::new()],
        };
        let mut entries: Vec<PlEntry> = Vec::new();
        if let Some(p) = c.plist {
            match edit {
                Edit::PlistBound { entry, .. } => {
                    entries.push(base.plists[p].entries[*entry]);
                    entries.push(mutated.plists[p].entries[*entry]);
                }
                _ => entries.extend(&base.plists[p].entries),
            }
        }
        for e in entries {
            let hi = e.le.unwrap_or(e.len);
            for len in [e.len, hi, hi.saturating_add(1).min(32)] {
                for cs in &comm_sets {
                    out.push(RouteWitness {
                        addr: e.addr & mask(len),
                        len,
                        comms: cs.clone(),
                    });
                }
            }
        }
    }
    out
}

/// Route-map divergence classes injected into every `rmap-10k` pair.
const RMAP_CLASSES: [DivClass; 3] = [DivClass::PlistBound, DivClass::RmapFlip, DivClass::CommEdit];

/// Draw one witness-verified divergence per class into `base`, returning
/// the mutated scenario. Edits that no targeted route separates (shadowed
/// clauses, no-op bounds) are redrawn; every witness is re-checked against
/// the final scenario, since a later edit can mask an earlier one.
pub fn inject(base: &Scenario, rng: &mut StdRng) -> (Scenario, Vec<Divergence>) {
    let mut mutated = base.clone();
    let mut found: Vec<(Edit, RouteWitness)> = Vec::new();
    for class in RMAP_CLASSES {
        for _ in 0..32 {
            let Some(edit) = draw_edit(base, class, rng) else {
                continue;
            };
            let mut next = mutated.clone();
            edit.apply(&mut next);
            let witness = route_candidates(base, &next, &edit)
                .into_iter()
                .find(|w| separates(base, &next, w));
            if let Some(w) = witness {
                mutated = next;
                found.push((edit, w));
                break;
            }
        }
    }
    let divergences = found
        .into_iter()
        .filter(|(_, w)| separates(base, &mutated, w))
        .map(|(edit, witness)| Divergence {
            edit: edit.describe(),
            witness,
        })
        .collect();
    (mutated, divergences)
}

/// The `rmap-10k` inputs for `seed`.
pub fn rmap_inputs(seed: u64) -> Result<CliInputs, String> {
    rmap_inputs_sized(seed, RMAP_SIZE, RMAP_PAIRS)
}

/// Route-map inputs at an explicit size (tests use tiny ones).
pub fn rmap_inputs_sized(seed: u64, size: RmapSize, n: usize) -> Result<CliInputs, String> {
    let mut notes = Vec::new();
    let mut pairs = Vec::new();
    let mut control = None;
    for i in 0..n {
        let mut made = None;
        for attempt in 0..SEED_ATTEMPTS {
            let s = mix(mix(seed, 2000 + i as u64), attempt);
            let mut rng = StdRng::seed_from_u64(s);
            let base = rmap_scenario(&mut rng, size);
            let (mutated, divergences) = inject(&base, &mut rng);
            if divergences.is_empty() {
                notes.push(format!(
                    "rejected generator seed {s}: no witness-verified divergence"
                ));
                continue;
            }
            made = Some((s, base, mutated, divergences));
            break;
        }
        let (s, base, mutated, divergences) =
            made.ok_or_else(|| format!("no route-map pair with a divergence from seed {seed}"))?;
        notes.push(format!(
            "pair rmap{i}: generator seed {s}, {}×{} entries, {} clauses; {}",
            size.lists,
            size.entries,
            size.clauses,
            divergences
                .iter()
                .map(|d| d.edit.clone())
                .collect::<Vec<_>>()
                .join("; ")
        ));
        if control.is_none() {
            control = Some(Pair {
                name: "control".to_string(),
                cisco: render_cisco(&base).text,
                juniper: render_juniper(&base).text,
                divergences: Vec::new(),
            });
            notes.push(format!("pair control: generator seed {s} without edits"));
        }
        pairs.push(Pair {
            name: format!("rmap{i}"),
            cisco: render_cisco(&base).text,
            juniper: render_juniper(&mutated).text,
            divergences,
        });
    }
    Ok(CliInputs {
        pairs,
        control: control.ok_or("no pairs requested")?,
        notes,
    })
}

/// One pair of the fleet manifest with its known answer.
#[derive(Debug, Clone)]
pub struct FleetPair {
    /// First router (always Cisco; the one a perturbation edits).
    pub a: String,
    /// Second router.
    pub b: String,
    /// Known answer before any perturbation.
    pub equivalent: bool,
}

/// The `fleet-http` fleet: configurations and the manifest.
#[derive(Debug, Clone)]
pub struct Fleet {
    /// Router name → configuration text.
    pub configs: BTreeMap<String, String>,
    /// The manifest, with known answers.
    pub pairs: Vec<FleetPair>,
    /// Provenance lines.
    pub notes: Vec<String>,
}

/// Capirca pairs in the fleet and their size.
pub const FLEET_ACL_PAIRS: usize = 4;
/// Rules per fleet ACL.
pub const FLEET_ACL_RULES: usize = 40;

impl Fleet {
    /// The snapshot with pair `perturb` (if any) edited by appending
    /// [`PERTURB_LINE`] to its first router.
    pub fn snapshot(&self, name: &str, perturb: Option<usize>) -> SnapshotInput {
        let mut configs = self.configs.clone();
        if let Some(p) = perturb {
            if let Some(text) = configs.get_mut(&self.pairs[p].a) {
                text.push_str(PERTURB_LINE);
            }
        }
        SnapshotInput {
            name: name.to_string(),
            configs,
            pairs: self
                .pairs
                .iter()
                .map(|p| (p.a.clone(), p.b.clone()))
                .collect(),
        }
    }

    /// Known answer of pair `i` when pair `perturbed` carries the edit: the
    /// extra static route exists on one side only.
    pub fn expect_equivalent(&self, i: usize, perturbed: Option<usize>) -> bool {
        self.pairs[i].equivalent && perturbed != Some(i)
    }

    /// Pairs whose inputs differ between two perturbation states: exactly
    /// the pairs an incremental ingest must recompute.
    pub fn changed_pairs(&self, from: Option<usize>, to: Option<usize>) -> usize {
        if from == to {
            return 0;
        }
        [from, to].iter().flatten().count()
    }
}

/// The `fleet-http` fleet for `seed`: Capirca ACL pairs (alternately with
/// one injected difference and with none) plus data-center scenario 1 and
/// 2 pairs with route maps, static routes and BGP.
pub fn fleet_inputs(seed: u64) -> Result<Fleet, String> {
    let mut notes = Vec::new();
    let mut configs = BTreeMap::new();
    let mut pairs = Vec::new();
    for i in 0..FLEET_ACL_PAIRS {
        let diffs = (i + 1) % 2;
        let (s, cisco, juniper) = capirca(
            FLEET_ACL_RULES,
            diffs,
            mix(seed, 3000 + i as u64),
            &mut notes,
        )?;
        notes.push(format!(
            "pair acl{i}: capirca_acl_pair({FLEET_ACL_RULES}, {diffs}, {s})"
        ));
        let (a, b) = (format!("acl{i}-cisco"), format!("acl{i}-juniper"));
        configs.insert(a.clone(), cisco);
        configs.insert(b.clone(), juniper);
        pairs.push(FleetPair {
            a,
            b,
            equivalent: diffs == 0,
        });
    }
    // One pair past each scenario's bug quota stays bug-free, so both
    // scenarios contribute an equivalent pair too.
    let (s1, s2) = (mix(seed, 4001), mix(seed, 4002));
    notes.push(format!(
        "pairs tor-*: scenario1(8, {s1}); pairs replace-*: scenario2(5, {s2})"
    ));
    let scenarios = std::panic::catch_unwind(|| {
        let mut v = campion_gen::scenario1(8, s1);
        v.extend(campion_gen::scenario2(5, s2));
        v
    })
    .map_err(|e| format!("scenario generation panicked: {}", panic_text(e.as_ref())))?;
    for sp in scenarios {
        let (a, b) = (format!("{}-cisco", sp.name), format!("{}-juniper", sp.name));
        configs.insert(a.clone(), sp.cisco);
        configs.insert(b.clone(), sp.juniper);
        pairs.push(FleetPair {
            a,
            b,
            equivalent: sp.bugs.is_empty(),
        });
    }
    Ok(Fleet {
        configs,
        pairs,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) const TINY: RmapSize = RmapSize {
        lists: 6,
        entries: 5,
        clauses: 8,
        comms: 4,
    };

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let a = rmap_inputs_sized(5, TINY, 2).expect("gen");
        let b = rmap_inputs_sized(5, TINY, 2).expect("gen");
        assert_eq!(a.pairs[1].juniper, b.pairs[1].juniper);
        assert_eq!(a.notes, b.notes);
        let c = rmap_inputs_sized(6, TINY, 2).expect("gen");
        assert_ne!(a.pairs[0].cisco, c.pairs[0].cisco);
    }

    #[test]
    fn every_divergence_witness_separates_the_sides() {
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let base = rmap_scenario(&mut rng, TINY);
            let (mutated, divs) = inject(&base, &mut rng);
            for d in &divs {
                assert!(
                    separates(&base, &mutated, &d.witness),
                    "seed {seed}: {}",
                    d.edit
                );
            }
        }
    }

    #[test]
    fn capirca_failures_are_reported_and_reseeded() {
        // 12 rules cannot hold 12 probe-reachable differences for most
        // seeds; whatever happens, it is either a valid pair or an error
        // naming the seeds, never a panic.
        let mut notes = Vec::new();
        match capirca(12, 12, 1, &mut notes) {
            Ok((s, c, j)) => assert!(!c.is_empty() && !j.is_empty() && s != 0),
            Err(e) => assert!(e.contains("failed for 8 seeds")),
        }
        assert!(notes.iter().all(|n| n.contains("rejected generator seed")));
    }

    #[test]
    fn fleet_split_and_answers_follow_the_perturbation() {
        let f = fleet_inputs(3).expect("fleet");
        assert_eq!(f.pairs.len(), FLEET_ACL_PAIRS + 13);
        assert_eq!(f.changed_pairs(None, Some(2)), 1);
        assert_eq!(f.changed_pairs(Some(2), Some(5)), 2);
        assert_eq!(f.changed_pairs(Some(5), Some(5)), 0);
        let ok = f
            .pairs
            .iter()
            .position(|p| p.equivalent)
            .expect("an equivalent pair");
        assert!(f.expect_equivalent(ok, None));
        assert!(!f.expect_equivalent(ok, Some(ok)));
        let snap = f.snapshot("s", Some(ok));
        assert!(snap.configs[&f.pairs[ok].a].ends_with(PERTURB_LINE));
        snap.validate().expect("valid snapshot");
    }
}
