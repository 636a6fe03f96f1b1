//! Workspace symbol table, call graph, and panic reachability.
//!
//! Built from the per-file [`crate::parser`] output. Resolution is a
//! deliberate over-approximation: a method call `x.frob()` edges to
//! *every* `frob` method in the workspace, because without types the
//! analyzer cannot know the receiver — and for a reachability lint a
//! spurious edge is a false positive someone reviews once, while a
//! missing edge is a panic the harness discovers in production.
//! External calls (`std`, unresolvable paths) produce no edge; their
//! panics are invisible, which the `unwrap`/`expect` constructs at the
//! call sites themselves compensate for.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::parser::{CallSite, FnItem, ParsedFile};

/// Why a function is considered reachable from a crash-safe entry
/// point: the entry and the immediate caller that pulled it in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Origin {
    /// Qualified name of the entry point (e.g. `accel::sim::evaluate`).
    pub entry: String,
    /// Qualified name of the direct caller, or the entry itself when
    /// the function *is* the entry.
    pub via: String,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct Graph {
    /// All non-test functions, indexed by id.
    pub fns: Vec<GraphFn>,
    by_qname: BTreeMap<String, usize>,
    /// name → ids of *free* functions (no self type), per crate.
    free_by_name: BTreeMap<(String, String), Vec<usize>>,
    /// (type, method) → ids.
    methods: BTreeMap<(String, String), Vec<usize>>,
    /// method name → ids (receiver unknown).
    by_method_name: BTreeMap<String, Vec<usize>>,
}

/// One function node plus the file context resolution needs.
#[derive(Debug, Clone)]
pub struct GraphFn {
    /// The parsed item.
    pub item: FnItem,
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// Crate (library) name of the defining file.
    pub crate_name: String,
    /// Index into the owning [`ParsedFile`]'s `uses` table, shared per
    /// file: `(file_id)` to look up imports during resolution.
    file_id: usize,
}

impl Graph {
    /// Builds the graph over every parsed file.
    pub fn build(files: &[ParsedFile]) -> Graph {
        let mut g = Graph::default();
        for (file_id, pf) in files.iter().enumerate() {
            for item in &pf.fns {
                let id = g.fns.len();
                g.fns.push(GraphFn {
                    item: item.clone(),
                    file: pf.path.clone(),
                    crate_name: pf.crate_name.clone(),
                    file_id,
                });
                g.by_qname.entry(item.qname.clone()).or_insert(id);
                match &item.self_ty {
                    Some(ty) => {
                        g.methods
                            .entry((ty.clone(), item.name.clone()))
                            .or_default()
                            .push(id);
                        g.by_method_name
                            .entry(item.name.clone())
                            .or_default()
                            .push(id);
                    }
                    None => {
                        g.free_by_name
                            .entry((pf.crate_name.clone(), item.name.clone()))
                            .or_default()
                            .push(id);
                    }
                }
            }
        }
        g
    }

    /// Looks up a function id by exact qualified name.
    pub fn fn_by_qname(&self, qname: &str) -> Option<usize> {
        self.by_qname.get(qname).copied()
    }

    /// Resolves one call site in `caller` to candidate callee ids.
    ///
    /// Resolution order: method-name match for `.m()`; use-alias
    /// expansion; crate-qualified suffix match; `Type::method`; bare
    /// free-function name within the caller's crate. Unresolvable
    /// paths (std, primitives, enum constructors) yield no candidates.
    pub fn resolve(&self, files: &[ParsedFile], caller: usize, call: &CallSite) -> Vec<usize> {
        let gf = &self.fns[caller];
        if call.is_method {
            let name = call.segments.last().map(String::as_str).unwrap_or("");
            return self.by_method_name.get(name).cloned().unwrap_or_default();
        }
        let mut segs: Vec<String> = call.segments.clone();
        if segs.is_empty() {
            return Vec::new();
        }
        // Normalise the head: `crate`/`self`/`super` stay inside the
        // caller's crate; a use alias expands to its full path.
        match segs[0].as_str() {
            "crate" | "self" | "super" => {
                segs.remove(0);
                if segs.is_empty() {
                    return Vec::new();
                }
                return self.resolve_in_crate(&gf.crate_name, &segs);
            }
            "std" | "core" | "alloc" => return Vec::new(),
            "Self" => {
                // `Self::helper()` — method or associated fn of the
                // caller's own type.
                if let (Some(ty), Some(name)) = (&gf.item.self_ty, segs.last()) {
                    return self
                        .methods
                        .get(&(ty.clone(), name.clone()))
                        .cloned()
                        .unwrap_or_default();
                }
                return Vec::new();
            }
            _ => {}
        }
        if let Some(u) = files[gf.file_id].uses.iter().find(|u| u.alias == segs[0]) {
            let mut full = u.segments.clone();
            full.extend(segs.iter().skip(1).cloned());
            if matches!(full[0].as_str(), "std" | "core" | "alloc") {
                return Vec::new();
            }
            segs = full;
        }
        // Crate-qualified path into this or another workspace crate.
        if self.crate_exists(files, &segs[0]) {
            let (head, rest) = segs
                .split_first()
                .map(|(h, r)| (h.clone(), r.to_vec()))
                .unwrap();
            if rest.is_empty() {
                return Vec::new();
            }
            return self.resolve_in_crate(&head, &rest);
        }
        // `Type::method` (head is a type-looking ident).
        if segs.len() >= 2 {
            let ty = &segs[segs.len() - 2];
            let name = &segs[segs.len() - 1];
            if ty.chars().next().is_some_and(char::is_uppercase) {
                return self
                    .methods
                    .get(&(ty.clone(), name.clone()))
                    .cloned()
                    .unwrap_or_default();
            }
            // Module-qualified free fn without a crate prefix
            // (`sim::evaluate` from inside `accel`): suffix match.
            return self.resolve_in_crate(&gf.crate_name, &segs);
        }
        // Bare name: free fn in the caller's crate.
        self.free_by_name
            .get(&(gf.crate_name.clone(), segs[0].clone()))
            .cloned()
            .unwrap_or_default()
    }

    fn crate_exists(&self, files: &[ParsedFile], name: &str) -> bool {
        files.iter().any(|f| f.crate_name == name)
    }

    /// Functions in `crate_name` whose qname segments end with `rest`.
    fn resolve_in_crate(&self, crate_name: &str, rest: &[String]) -> Vec<usize> {
        let suffix = rest.join("::");
        let name = rest.last().map(String::as_str).unwrap_or("");
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                f.crate_name == crate_name
                    && f.item.name == name
                    && (f.item.qname.ends_with(&format!("::{suffix}"))
                        || f.item.qname == format!("{crate_name}::{suffix}"))
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// BFS over unprotected call edges from the entry-point qnames.
    /// Returns, per function id, the [`Origin`] that first reached it
    /// (`None` = unreachable). Calls lexically inside `catch_unwind`
    /// arguments are cut: a panic beyond them is converted to a typed
    /// retry by the harness, which is exactly the contract the lint
    /// enforces.
    pub fn reachable(&self, files: &[ParsedFile], entries: &[&str]) -> Vec<Option<Origin>> {
        let mut origin: Vec<Option<Origin>> = vec![None; self.fns.len()];
        let mut queue = VecDeque::new();
        let mut seen = BTreeSet::new();
        for entry in entries {
            if let Some(id) = self.fn_by_qname(entry) {
                origin[id] = Some(Origin {
                    entry: entry.to_string(),
                    via: entry.to_string(),
                });
                seen.insert(id);
                queue.push_back(id);
            }
        }
        while let Some(id) = queue.pop_front() {
            let entry = origin[id]
                .as_ref()
                .map(|o| o.entry.clone())
                .unwrap_or_default();
            let caller_qname = self.fns[id].item.qname.clone();
            let calls = self.fns[id].item.calls.clone();
            for call in &calls {
                if call.protected {
                    continue;
                }
                for callee in self.resolve(files, id, call) {
                    if seen.insert(callee) {
                        origin[callee] = Some(Origin {
                            entry: entry.clone(),
                            via: caller_qname.clone(),
                        });
                        queue.push_back(callee);
                    }
                }
            }
        }
        origin
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    /// A three-crate fixture exercising free-fn, method, cross-crate,
    /// and protected-edge resolution.
    fn fixture() -> Vec<ParsedFile> {
        let sim = "pub fn evaluate() {\n\
                     let out = catch_unwind(|| { shard_guarded(); });\n\
                     plan();\n\
                   }\n\
                   fn plan() { ancode::an::encode(1); }\n\
                   fn shard_guarded() { x.unwrap(); }";
        let campaign = "pub struct Campaign;\n\
                        impl Campaign {\n\
                          pub fn run(&mut self) { self.step(); }\n\
                          fn step(&mut self) { helpers::finish(); }\n\
                        }\n\
                        mod helpers { pub fn finish() { y.expect(\"no\"); } }";
        let an = "pub fn encode(x: u64) -> u64 { table()[0] }\n\
                  fn table() -> &'static [u64] { &[1] }\n\
                  pub fn orphan() { z.unwrap(); }";
        vec![
            parse_file("crates/accel/src/sim/mod.rs", "accel", &lex(sim)),
            parse_file("crates/accel/src/campaign.rs", "accel", &lex(campaign)),
            parse_file("crates/core/src/an.rs", "ancode", &lex(an)),
        ]
    }

    #[test]
    fn cross_crate_and_method_edges_resolve() {
        let files = fixture();
        let g = Graph::build(&files);
        let origin = g.reachable(
            &files,
            &["accel::sim::evaluate", "accel::campaign::Campaign::run"],
        );
        let by = |q: &str| origin[g.fn_by_qname(q).unwrap()].clone();

        // evaluate → plan → ancode::an::encode → table.
        assert_eq!(
            by("accel::sim::plan").unwrap().entry,
            "accel::sim::evaluate"
        );
        assert_eq!(by("ancode::an::encode").unwrap().via, "accel::sim::plan");
        assert!(by("ancode::an::table").is_some());
        // Campaign::run → step (method) → helpers::finish.
        let fin = by("accel::campaign::Campaign::step").unwrap();
        assert_eq!(fin.entry, "accel::campaign::Campaign::run");
        assert!(by("accel::campaign::helpers::finish").is_some());
        // The guarded shard is only called behind catch_unwind: cut.
        assert!(by("accel::sim::shard_guarded").is_none());
        // Never called at all.
        assert!(by("ancode::an::orphan").is_none());
    }

    #[test]
    fn use_alias_expands_before_resolution() {
        let a = "use other::deep::work as w;\n?pub fn top() { w(); }".replace('?', "");
        let b = "pub mod deep { pub fn work() { q.unwrap(); } }";
        let files = vec![
            parse_file("crates/alpha/src/lib.rs", "alpha", &lex(&a)),
            parse_file("crates/other/src/lib.rs", "other", &lex(b)),
        ];
        let g = Graph::build(&files);
        let origin = g.reachable(&files, &["alpha::top"]);
        assert!(origin[g.fn_by_qname("other::deep::work").unwrap()].is_some());
    }
}
