//! The symbolic route-advertisement space and the transfer machinery for
//! route policies.

use std::collections::{BTreeSet, HashMap};
use std::fmt;

use campion_bdd::{bits, Assignment, Bdd, Manager};
use campion_ir::{
    CommAtom, CommunityDialect, Match, PrefixMatcher, RoutePolicy, RouteProtocol, SetAction,
};
use campion_net::regex::Regex;
use campion_net::{Community, Prefix, PrefixRange};

/// One community atom in the encoding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum AtomKey {
    /// A known community literal.
    Literal(Community),
    /// "Carries some community outside the literal universe matching this
    /// regex."
    UnknownRegex(String),
}

impl fmt::Display for AtomKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AtomKey::Literal(c) => write!(f, "{c}"),
            AtomKey::UnknownRegex(r) => write!(f, "community matching /{r}/"),
        }
    }
}

/// Tracks the current (possibly rewritten) symbolic attributes of a route as
/// it flows through a policy's clauses — so a match *after* a `set` sees the
/// written value, exactly like Batfish's TransferBDD.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolicRoute {
    /// Per-atom truth function over the *input* variables.
    pub comm: Vec<Bdd>,
    /// Current tag: still the input, or a constant written by a set.
    pub tag: FieldState,
    /// Current metric.
    pub metric: FieldState,
}

/// A scalar attribute is either still the unmodified input or a constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldState {
    /// The input value, unmodified.
    Input,
    /// Overwritten with a constant.
    Const(u32),
}

/// Variable layout and encoding operations for route advertisements.
///
/// Layout (in BDD variable order):
///
/// | vars             | meaning                              |
/// |------------------|--------------------------------------|
/// | `0..32`          | prefix address bits, MSB first       |
/// | `32..38`         | prefix length (6 bits)               |
/// | `38..41`         | source protocol (3 bits)             |
/// | then             | one var per community atom           |
/// | then             | one var per distinct tag constant    |
/// | then             | one var per distinct metric constant |
///
/// `Clone` snapshots the space (manager arena included, with node indices
/// preserved), so localization queries can run on a copy that is dropped
/// afterwards; the benchmark's traced replay does this.
#[derive(Clone)]
pub struct RouteSpace {
    /// The BDD manager (exposed so callers can run set operations).
    pub manager: Manager,
    atoms: Vec<AtomKey>,
    tag_values: Vec<u32>,
    metric_values: Vec<u32>,
    comm_base: u32,
    tag_base: u32,
    metric_base: u32,
    num_vars: u32,
    /// Cached canonical-prefix constraint (see [`RouteSpace::canonical`]).
    canonical: Option<Bdd>,
    /// Memoized first-match folds of prefix matchers, keyed by canonical
    /// content (entries only — name and spans don't shape the BDD). Both
    /// policies of a pair share this space and near-identical pairs reuse
    /// the same prefix lists, and fall-through forks of [`policy_paths`]
    /// re-encode the same clause once per frame; each distinct matcher is
    /// folded once. Entries are GC-rooted at insert (cache lives as long
    /// as the space).
    matcher_cache: HashMap<Vec<(bool, PrefixRange)>, Bdd>,
    matcher_cache_lookups: u64,
    matcher_cache_hits: u64,
}

/// First variable of the prefix-address run.
pub const PREFIX_VARS: std::ops::Range<u32> = 0..32;
/// Variables of the prefix-length field.
pub const LEN_VARS: std::ops::Range<u32> = 32..38;
/// Variables of the protocol field.
pub const PROTO_VARS: std::ops::Range<u32> = 38..41;

fn proto_code(p: RouteProtocol) -> u64 {
    match p {
        RouteProtocol::Connected => 0,
        RouteProtocol::Static => 1,
        RouteProtocol::Ospf => 2,
        RouteProtocol::Bgp => 3,
        RouteProtocol::Aggregate => 4,
    }
}

fn proto_from_code(c: u64) -> RouteProtocol {
    match c {
        0 => RouteProtocol::Connected,
        1 => RouteProtocol::Static,
        2 => RouteProtocol::Ospf,
        4 => RouteProtocol::Aggregate,
        _ => RouteProtocol::Bgp,
    }
}

impl RouteSpace {
    /// Build the space for a set of policies: the atom/tag/metric universes
    /// are the union over everything any policy matches or sets.
    pub fn for_policies(policies: &[&RoutePolicy]) -> RouteSpace {
        let mut literals: BTreeSet<Community> = BTreeSet::new();
        let mut regexes: BTreeSet<String> = BTreeSet::new();
        let mut tags: BTreeSet<u32> = BTreeSet::new();
        let mut metrics: BTreeSet<u32> = BTreeSet::new();
        for p in policies {
            for atom in p.community_atoms() {
                match atom {
                    CommAtom::Literal(c) => {
                        literals.insert(c);
                    }
                    CommAtom::Regex(r) => {
                        regexes.insert(r);
                    }
                }
            }
            for clause in &p.clauses {
                for m in &clause.matches {
                    match m {
                        Match::Tag(t) => {
                            tags.insert(*t);
                        }
                        Match::Metric(v) => {
                            metrics.insert(*v);
                        }
                        _ => {}
                    }
                }
                for s in &clause.sets {
                    match s {
                        SetAction::Tag(t) => {
                            tags.insert(*t);
                        }
                        SetAction::Metric(v) => {
                            metrics.insert(*v);
                        }
                        _ => {}
                    }
                }
            }
        }
        let mut atoms: Vec<AtomKey> = literals.into_iter().map(AtomKey::Literal).collect();
        atoms.extend(regexes.into_iter().map(AtomKey::UnknownRegex));
        let tag_values: Vec<u32> = tags.into_iter().collect();
        let metric_values: Vec<u32> = metrics.into_iter().collect();
        let comm_base = PROTO_VARS.end;
        let tag_base = comm_base + atoms.len() as u32;
        let metric_base = tag_base + tag_values.len() as u32;
        let num_vars = metric_base + metric_values.len() as u32;
        RouteSpace {
            manager: Manager::new(num_vars),
            atoms,
            tag_values,
            metric_values,
            comm_base,
            tag_base,
            metric_base,
            num_vars,
            canonical: None,
            matcher_cache: HashMap::new(),
            matcher_cache_lookups: 0,
            matcher_cache_hits: 0,
        }
    }

    /// Rule-cache counters `(lookups, hits)` — one lookup per
    /// [`RouteSpace::prefix_matcher_bdd`] call. The driver folds these into
    /// the report's [`campion_bdd::ManagerStats`].
    pub fn rule_cache_stats(&self) -> (u64, u64) {
        (self.matcher_cache_lookups, self.matcher_cache_hits)
    }

    /// The canonical-prefix constraint: address bits at positions ≥ the
    /// prefix length are zero (real advertisements carry canonical
    /// prefixes; without this, the space distinguishes phantom inputs that
    /// differ only in masked-out host bits). Encoded as
    /// `⋀ᵢ (addr bit i set → length > i)` together with `length ≤ 32`.
    pub fn canonical(&mut self) -> Bdd {
        if let Some(c) = self.canonical {
            return c;
        }
        let len_vars: Vec<u32> = LEN_VARS.collect();
        let mut acc = bits::le_const(&mut self.manager, &len_vars, 32);
        for i in (0..32u32).rev() {
            let unset = self.manager.nvar(i);
            let needs = bits::ge_const(&mut self.manager, &len_vars, u64::from(i) + 1);
            let implied = self.manager.or(unset, needs);
            acc = self.manager.and(acc, implied);
        }
        // The cache is consulted for the lifetime of the space, so it must
        // survive any collection the driver runs between work phases.
        self.manager.protect(acc);
        self.canonical = Some(acc);
        acc
    }

    /// The community atoms in variable order.
    pub fn atoms(&self) -> &[AtomKey] {
        &self.atoms
    }

    /// Total variable count.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// The valid-input constraint: canonical prefix with length ≤ 32,
    /// protocol is a real protocol, and the tag/metric one-hot fields carry
    /// at most one value.
    pub fn universe(&mut self) -> Bdd {
        let canon = self.canonical();
        let raw = self.universe_raw();
        self.manager.and(canon, raw)
    }

    /// The universe *without* the regex-language refinement of
    /// [`RouteSpace::universe`]'s atom constraints — used by the ablation
    /// harness to quantify how many spurious differences the refinement
    /// removes. (Canonicality and the one-hot field constraints are kept.)
    pub fn universe_without_regex_refinement(&mut self) -> Bdd {
        let canon = self.canonical();
        let len_vars: Vec<u32> = LEN_VARS.collect();
        let mut u = bits::le_const(&mut self.manager, &len_vars, 32);
        let proto_vars: Vec<u32> = PROTO_VARS.collect();
        let p = bits::le_const(&mut self.manager, &proto_vars, 4);
        u = self.manager.and(u, p);
        u = self.at_most_one(u, self.tag_base, self.tag_values.len());
        u = self.at_most_one(u, self.metric_base, self.metric_values.len());
        self.manager.and(u, canon)
    }

    /// [`RouteSpace::universe`] without the canonical-prefix constraint:
    /// the length bound, the protocol range, the one-hot tag/metric
    /// fields and the regex-atom refinement.
    fn universe_raw(&mut self) -> Bdd {
        let len_vars: Vec<u32> = LEN_VARS.collect();
        let mut u = bits::le_const(&mut self.manager, &len_vars, 32);
        let proto_vars: Vec<u32> = PROTO_VARS.collect();
        let p = bits::le_const(&mut self.manager, &proto_vars, 4);
        u = self.manager.and(u, p);
        u = self.at_most_one(u, self.tag_base, self.tag_values.len());
        u = self.at_most_one(u, self.metric_base, self.metric_values.len());
        u = self.regex_atom_constraints(u);
        u
    }

    /// Refine the unknown-regex atoms with language-level facts, so that
    /// semantically related regexes don't produce spurious differences:
    ///
    /// * a regex whose language is covered by the literal universe has no
    ///   unknown matches — its atom is pinned false;
    /// * when `L(R₁) ⊆ L(R₂) ∪ literals`, any unknown community matching
    ///   `R₁` also matches `R₂` — the atoms gain an implication. Equal
    ///   languages therefore get equivalent atoms.
    fn regex_atom_constraints(&mut self, mut u: Bdd) -> Bdd {
        let lits: Vec<String> = self
            .atoms
            .iter()
            .filter_map(|a| match a {
                AtomKey::Literal(c) => Some(c.to_string()),
                AtomKey::UnknownRegex(_) => None,
            })
            .collect();
        let regexes: Vec<(usize, String)> = self
            .atoms
            .iter()
            .enumerate()
            .filter_map(|(i, a)| match a {
                AtomKey::UnknownRegex(r) => Some((i, r.clone())),
                AtomKey::Literal(_) => None,
            })
            .collect();
        let compiled: Vec<(usize, Regex)> = regexes
            .iter()
            .map(|(i, r)| (*i, Regex::new(r).expect("validated at lowering")))
            .collect();
        for (i, re) in &compiled {
            if !campion_net::regex_dfa::matches_beyond(re, &lits) {
                let nv = self.manager.nvar(self.comm_base + *i as u32);
                u = self.manager.and(u, nv);
            }
        }
        for (i, ri) in &compiled {
            for (j, rj) in &compiled {
                if i == j {
                    continue;
                }
                if campion_net::regex_dfa::language_subset_except(ri, rj, &lits) {
                    let a = self.manager.var(self.comm_base + *i as u32);
                    let b = self.manager.var(self.comm_base + *j as u32);
                    let implies = self.manager.implies(a, b);
                    u = self.manager.and(u, implies);
                }
            }
        }
        u
    }

    fn at_most_one(&mut self, mut acc: Bdd, base: u32, n: usize) -> Bdd {
        for i in 0..n {
            for j in (i + 1)..n {
                let a = self.manager.var(base + i as u32);
                let b = self.manager.var(base + j as u32);
                let both = self.manager.and(a, b);
                let not_both = self.manager.not(both);
                acc = self.manager.and(acc, not_both);
            }
        }
        acc
    }

    /// The unmodified-input symbolic state.
    pub fn initial_state(&mut self) -> SymbolicRoute {
        let comm = (0..self.atoms.len())
            .map(|i| self.manager.var(self.comm_base + i as u32))
            .collect();
        SymbolicRoute {
            comm,
            tag: FieldState::Input,
            metric: FieldState::Input,
        }
    }

    /// The set of (canonical) advertisements whose prefix is a member of
    /// `r`. The canonicality constraint is included so that range sets,
    /// path predicates and projections all live in the same subspace.
    pub fn prefix_range_bdd(&mut self, r: &PrefixRange) -> Bdd {
        let addr_vars: Vec<u32> = PREFIX_VARS.collect();
        let a = bits::prefix_const(
            &mut self.manager,
            &addr_vars,
            r.prefix.bits(),
            r.prefix.len(),
        );
        let len_vars: Vec<u32> = LEN_VARS.collect();
        let l = bits::range_const(
            &mut self.manager,
            &len_vars,
            u64::from(r.min_len),
            u64::from(r.max_len),
        );
        let range = self.manager.and(a, l);
        let canon = self.canonical();
        self.manager.and(range, canon)
    }

    /// First-match fold of an ordered permit/deny prefix matcher. Memoized
    /// on the matcher's canonical entry list (see `matcher_cache`).
    pub fn prefix_matcher_bdd(&mut self, pm: &PrefixMatcher) -> Bdd {
        let key: Vec<(bool, PrefixRange)> =
            pm.entries.iter().map(|e| (e.permit, e.range)).collect();
        self.matcher_cache_lookups += 1;
        if let Some(&b) = self.matcher_cache.get(&key) {
            self.matcher_cache_hits += 1;
            return b;
        }
        let mut result = Bdd::FALSE;
        // Fold from the last entry backwards: earlier entries shadow later.
        // A permit entry adds its range, a deny entry carves it out.
        for e in pm.entries.iter().rev() {
            let cond = self.prefix_range_bdd(&e.range);
            result = if e.permit {
                self.manager.or(cond, result)
            } else {
                self.manager.diff(result, cond)
            };
        }
        self.manager.protect(result);
        self.matcher_cache.insert(key, result);
        result
    }

    /// Truth function of one community atom under the current state.
    fn atom_bdd(&mut self, atom: &CommAtom, state: &SymbolicRoute) -> Bdd {
        match atom {
            CommAtom::Literal(c) => {
                match self.atom_index(&AtomKey::Literal(*c)) {
                    Some(i) => state.comm[i],
                    // A literal outside the universe (can only happen for
                    // adverts synthesized by tests): never present.
                    None => Bdd::FALSE,
                }
            }
            CommAtom::Regex(pat) => {
                let re = Regex::new(pat).expect("validated at lowering");
                let mut acc = Bdd::FALSE;
                for (i, key) in self.atoms.clone().iter().enumerate() {
                    let hit = match key {
                        AtomKey::Literal(c) => re.is_match(&c.to_string()),
                        AtomKey::UnknownRegex(r) => r == pat,
                    };
                    if hit {
                        acc = self.manager.or(acc, state.comm[i]);
                    }
                }
                acc
            }
        }
    }

    fn atom_index(&self, key: &AtomKey) -> Option<usize> {
        self.atoms.iter().position(|a| a == key)
    }

    /// Encode one match condition under the current symbolic state.
    pub fn match_bdd(&mut self, m: &Match, state: &SymbolicRoute) -> Bdd {
        match m {
            Match::Prefix(pms) => {
                let mut acc = Bdd::FALSE;
                for pm in pms {
                    let b = self.prefix_matcher_bdd(pm);
                    acc = self.manager.or(acc, b);
                }
                acc
            }
            Match::Community(cms) => {
                let mut acc = Bdd::FALSE;
                for cm in cms {
                    let b = match &cm.dialect {
                        CommunityDialect::CiscoList(entries) => {
                            let mut result = Bdd::FALSE;
                            for (permit, atoms, _) in entries.iter().rev() {
                                let mut conj = Bdd::TRUE;
                                for a in atoms {
                                    let ab = self.atom_bdd(a, state);
                                    conj = self.manager.and(conj, ab);
                                }
                                result = if *permit {
                                    self.manager.or(conj, result)
                                } else {
                                    self.manager.diff(result, conj)
                                };
                            }
                            result
                        }
                        CommunityDialect::JunosMembers(atoms) => {
                            let mut conj = Bdd::TRUE;
                            for a in atoms {
                                let ab = self.atom_bdd(a, state);
                                conj = self.manager.and(conj, ab);
                            }
                            conj
                        }
                    };
                    acc = self.manager.or(acc, b);
                }
                acc
            }
            Match::Tag(t) => self.scalar_eq(state.tag, *t, self.tag_base, &self.tag_values.clone()),
            Match::Metric(v) => self.scalar_eq(
                state.metric,
                *v,
                self.metric_base,
                &self.metric_values.clone(),
            ),
            Match::Protocol(ps) => {
                let proto_vars: Vec<u32> = PROTO_VARS.collect();
                let mut acc = Bdd::FALSE;
                for p in ps {
                    let e = bits::eq_const(&mut self.manager, &proto_vars, proto_code(*p));
                    acc = self.manager.or(acc, e);
                }
                acc
            }
        }
    }

    fn scalar_eq(&mut self, state: FieldState, wanted: u32, base: u32, values: &[u32]) -> Bdd {
        match state {
            FieldState::Const(c) => {
                if c == wanted {
                    Bdd::TRUE
                } else {
                    Bdd::FALSE
                }
            }
            FieldState::Input => match values.iter().position(|v| *v == wanted) {
                Some(i) => self.manager.var(base + i as u32),
                None => Bdd::FALSE,
            },
        }
    }

    /// Apply a clause's set actions to the symbolic state.
    pub fn apply_sets(&mut self, state: &mut SymbolicRoute, sets: &[SetAction]) {
        for s in sets {
            match s {
                SetAction::Tag(t) => state.tag = FieldState::Const(*t),
                SetAction::Metric(v) => state.metric = FieldState::Const(*v),
                SetAction::CommunitySet(cs) => {
                    for (i, key) in self.atoms.clone().iter().enumerate() {
                        state.comm[i] = match key {
                            AtomKey::Literal(c) if cs.contains(c) => Bdd::TRUE,
                            _ => Bdd::FALSE,
                        };
                    }
                }
                SetAction::CommunityAdd(cs) => {
                    for c in cs {
                        if let Some(i) = self.atom_index(&AtomKey::Literal(*c)) {
                            state.comm[i] = Bdd::TRUE;
                        }
                    }
                }
                SetAction::CommunityDelete(atoms) => {
                    let regexes: Vec<Regex> = atoms
                        .iter()
                        .filter_map(|a| match a {
                            CommAtom::Regex(p) => Some(Regex::new(p).expect("validated")),
                            CommAtom::Literal(_) => None,
                        })
                        .collect();
                    for (i, key) in self.atoms.clone().iter().enumerate() {
                        let deleted = match key {
                            AtomKey::Literal(c) => {
                                atoms.contains(&CommAtom::Literal(*c))
                                    || regexes.iter().any(|r| r.is_match(&c.to_string()))
                            }
                            AtomKey::UnknownRegex(r) => {
                                // Deleting by the same pattern removes the
                                // unknown matches; other patterns may or may
                                // not overlap — keep them (overapproximate).
                                atoms
                                    .iter()
                                    .any(|a| matches!(a, CommAtom::Regex(p) if p == r))
                            }
                        };
                        if deleted {
                            state.comm[i] = Bdd::FALSE;
                        }
                    }
                }
                // The remaining sets touch attributes no match can read.
                SetAction::LocalPref(_) | SetAction::Weight(_) | SetAction::NextHop(_) => {}
            }
        }
    }

    /// Project a predicate onto the prefix dimensions (address + length),
    /// existentially quantifying protocol, community, tag and metric vars.
    pub fn project_to_prefix(&mut self, f: Bdd) -> Bdd {
        let vars: Vec<u32> = (PROTO_VARS.start..self.num_vars).collect();
        self.manager.exists(f, &vars)
    }

    /// Decode a satisfying assignment into a human-readable example.
    pub fn concretize(&self, a: &Assignment) -> RouteExample {
        let addr = a.decode_be(PREFIX_VARS) as u32;
        let len = (a.decode_be(LEN_VARS) as u8).min(32);
        let prefix = Prefix::new(std::net::Ipv4Addr::from(addr), len);
        let protocol = proto_from_code(a.decode_be(PROTO_VARS));
        let mut communities = Vec::new();
        for (i, key) in self.atoms.iter().enumerate() {
            if a.get(self.comm_base + i as u32) {
                communities.push(key.clone());
            }
        }
        let tag = self
            .tag_values
            .iter()
            .enumerate()
            .find(|(i, _)| a.get(self.tag_base + *i as u32))
            .map(|(_, v)| *v);
        let metric = self
            .metric_values
            .iter()
            .enumerate()
            .find(|(i, _)| a.get(self.metric_base + *i as u32))
            .map(|(_, v)| *v);
        RouteExample {
            prefix,
            protocol,
            communities,
            tag,
            metric,
        }
    }
}

/// A decoded example advertisement for reports (Campion prints one concrete
/// example for non-prefix fields — Table 2(b)'s `Community: 10:10` row).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteExample {
    /// The advertised prefix.
    pub prefix: Prefix,
    /// Source protocol.
    pub protocol: RouteProtocol,
    /// Communities carried (atoms; unknown-regex atoms print descriptively).
    pub communities: Vec<AtomKey>,
    /// Tag, when one of the known values is set.
    pub tag: Option<u32>,
    /// Metric, when one of the known values is set.
    pub metric: Option<u32>,
}

impl fmt::Display for RouteExample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.prefix)?;
        if !self.communities.is_empty() {
            let cs: Vec<String> = self.communities.iter().map(|c| c.to_string()).collect();
            write!(f, " communities: {}", cs.join(", "))?;
        }
        if let Some(t) = self.tag {
            write!(f, " tag: {t}")?;
        }
        if let Some(m) = self.metric {
            write!(f, " metric: {m}")?;
        }
        Ok(())
    }
}
