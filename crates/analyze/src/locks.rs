//! The lock-order / race-pattern pass over the serving layer.
//!
//! `dpe-server` has grown real lock surface: per-shard `RwLock<Shard>`s,
//! per-shard cache and plan `Mutex`es, and the submission intake's
//! mutex — plus channels threaded between producer threads and lock
//! holders. No test explores interleavings that deadlock; this pass
//! explores the *acquisition structure* instead:
//!
//! | rule | pattern |
//! |---|---|
//! | `lock-order-cycle` | two lock classes acquired in both orders somewhere in the crate (classic AB/BA deadlock) |
//! | `lock-reentrant` | a lock class acquired while an acquisition of the same class is still held (std locks are not reentrant) |
//! | `lock-across-channel` | a channel `send`/`recv` while any lock is held (blocks the holder on a peer that may need the lock) |
//! | `guard-immediately-dropped` | `let _ = …lock()` — the guard dies instantly, the "critical section" is unguarded |
//! | `guard-escapes-function` | a function returning a `…Guard` type — callers extend the critical section invisibly |
//!
//! Lock identity is the *field path* of the receiver (`self.shards`,
//! `self.caches`, …), with `let` aliases resolved one level deep
//! (`let slot = self.shards.get(i)…; slot.write()` still counts as
//! `self.shards`). Guards bound by `let` are held to the end of their
//! block; guards consumed inline (`x.lock().expect(…).get(…)`) are held
//! to the end of the statement. An approximate call graph propagates
//! acquisition sets, so `f` holding `A` and calling `g` that takes `B`
//! contributes the pair `A → B` even across functions. All of it is an
//! over-approximation; waivers and the baseline keep it actionable.

use crate::config::Config;
use crate::engine::WaiverIndex;
use crate::findings::{finding_key, Finding};
use crate::lexer::TokenKind;
use crate::model::{FileModel, FunctionModel};
use std::collections::{BTreeMap, BTreeSet};

/// One observed "B acquired while A held" edge.
// The clippy.toml ban on `PartialOrd::partial_cmp` targets NaN-prone
// float sorts; this derive is field-wise over strings and integers.
#[allow(clippy::disallowed_methods)]
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct PairSite {
    from: String,
    to: String,
    line: u32,
}

/// Per-function lock facts extracted from the token walk.
#[derive(Debug, Default)]
struct FnLocks {
    /// Lock classes acquired anywhere in the body.
    direct: BTreeSet<String>,
    /// Ordered acquisition pairs observed inside the body.
    pairs: Vec<PairSite>,
    /// Calls made while at least one lock was held: (callee, held, line).
    calls_with_held: Vec<(String, Vec<String>, u32)>,
    /// Local findings (reentrant / channel / dropped-guard), pre-waiver.
    local: Vec<(String, String, u32, String)>, // (rule, detail, line, message)
}

/// Runs the pass over the scanned workspace.
pub fn run(files: &[FileModel], config: &Config, waivers: &mut WaiverIndex) -> Vec<Finding> {
    let in_scope: Vec<&FunctionModel> = files
        .iter()
        .filter(|f| config.lock_crates.iter().any(|c| c == &f.crate_name))
        .flat_map(|f| f.functions.iter())
        .filter(|f| !f.in_test)
        .collect();

    let mut facts: Vec<FnLocks> = in_scope.iter().map(|f| walk_function(f)).collect();

    // Approximate call graph within the scoped crates, for acquisition
    // propagation: bare names and `Type::method` paths both resolve.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut by_typed: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, f) in in_scope.iter().enumerate() {
        by_name.entry(f.name.as_str()).or_default().push(i);
        if let Some(t) = &f.type_qualified {
            by_typed.entry(t.as_str()).or_default().push(i);
        }
    }
    let resolve = |call: &str| -> Vec<usize> {
        if call.contains("::") {
            by_typed.get(call).cloned().unwrap_or_default()
        } else {
            by_name.get(call).cloned().unwrap_or_default()
        }
    };

    // Transitive acquisition sets, to a fixpoint (the graph is tiny).
    let mut trans: Vec<BTreeSet<String>> = facts.iter().map(|f| f.direct.clone()).collect();
    loop {
        let mut changed = false;
        for (i, f) in in_scope.iter().enumerate() {
            let mut add: BTreeSet<String> = BTreeSet::new();
            for call in &f.calls {
                for j in resolve(&call.name) {
                    if j != i {
                        add.extend(trans[j].iter().cloned());
                    }
                }
            }
            for l in add {
                changed |= trans[i].insert(l);
            }
        }
        if !changed {
            break;
        }
    }

    // Inter-procedural pairs: f holds A, calls g, g (transitively) takes B.
    for (i, f) in in_scope.iter().enumerate() {
        let calls = facts[i].calls_with_held.clone();
        for (callee, held, line) in calls {
            for j in resolve(&callee) {
                if j == i {
                    continue;
                }
                for b in trans[j].clone() {
                    for a in &held {
                        if *a == b {
                            facts[i].local.push((
                                "lock-reentrant".into(),
                                format!("{a}->{callee}"),
                                line,
                                format!(
                                    "`{}` calls `{callee}` while holding `{a}`, which (transitively) re-acquires `{a}`",
                                    f.name
                                ),
                            ));
                        } else {
                            facts[i].pairs.push(PairSite {
                                from: a.clone(),
                                to: b.clone(),
                                line,
                            });
                        }
                    }
                }
            }
        }
    }

    // Global pair graph → strongly connected components → cycle findings.
    let mut edges: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for f in &facts {
        for p in &f.pairs {
            edges
                .entry(p.from.as_str())
                .or_default()
                .insert(p.to.as_str());
        }
    }
    let cyclic = cyclic_nodes(&edges);

    let mut findings = Vec::new();
    for (i, f) in in_scope.iter().enumerate() {
        let mut occurrence: BTreeMap<(String, String), usize> = BTreeMap::new();
        let push = |rule: &str,
                    detail: &str,
                    line: u32,
                    message: String,
                    occurrence: &mut BTreeMap<(String, String), usize>,
                    findings: &mut Vec<Finding>,
                    waivers: &mut WaiverIndex| {
            let idx = occurrence
                .entry((rule.to_string(), detail.to_string()))
                .or_insert(0);
            let key = finding_key(rule, &f.file, &f.qualified, detail, *idx);
            *idx += 1;
            if waivers.is_waived(&f.file, rule, line) {
                return;
            }
            findings.push(Finding {
                key,
                rule: rule.to_string(),
                file: f.file.clone(),
                line,
                function: f.qualified.clone(),
                message,
            });
        };

        // Cycle findings: one per (function, ordered pair) participating
        // in a cyclic component.
        let mut seen_pairs: BTreeSet<(String, String)> = BTreeSet::new();
        for p in &facts[i].pairs {
            if !seen_pairs.insert((p.from.clone(), p.to.clone())) {
                continue;
            }
            if cyclic.contains(&(p.from.as_str(), p.to.as_str())) {
                push(
                    "lock-order-cycle",
                    &format!("{}->{}", p.from, p.to),
                    p.line,
                    format!(
                        "`{}` acquires `{}` while holding `{}`, but the reverse order also exists in this crate — AB/BA deadlock",
                        f.name, p.to, p.from
                    ),
                    &mut occurrence,
                    &mut findings,
                    waivers,
                );
            }
        }
        for (rule, detail, line, message) in facts[i].local.clone() {
            push(
                &rule,
                &detail,
                line,
                message,
                &mut occurrence,
                &mut findings,
                waivers,
            );
        }
        // Guard-returning signature.
        let mut after_arrow = false;
        for t in &f.signature {
            if t.text == "->" {
                after_arrow = true;
            } else if after_arrow && t.kind == TokenKind::Ident && t.text.ends_with("Guard") {
                push(
                    "guard-escapes-function",
                    &t.text.clone(),
                    f.start_line,
                    format!(
                        "`{}` returns a `{}`: callers hold the lock for an invisible extent",
                        f.name, t.text
                    ),
                    &mut occurrence,
                    &mut findings,
                    waivers,
                );
                break;
            }
        }
    }
    findings
}

/// Ordered pairs (a, b) that lie inside a cycle of the pair graph: edge
/// a→b is cyclic iff b can reach a.
fn cyclic_nodes<'a>(edges: &BTreeMap<&'a str, BTreeSet<&'a str>>) -> BTreeSet<(&'a str, &'a str)> {
    let reaches = |from: &str, to: &str| -> bool {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if !seen.insert(n) {
                continue;
            }
            if let Some(next) = edges.get(n) {
                stack.extend(next.iter().copied());
            }
        }
        false
    };
    let mut cyclic = BTreeSet::new();
    for (a, tos) in edges {
        for b in tos {
            if reaches(b, a) {
                cyclic.insert((*a, *b));
            }
        }
    }
    cyclic
}

/// A held lock acquisition.
#[derive(Debug, Clone)]
struct Held {
    name: String,
    /// `let` binding holding the guard, when there is one.
    binding: Option<String>,
    depth: u32,
    /// Inline-consumed guard: released at the end of the statement.
    temp: bool,
}

const ACQUIRERS: &[&str] = &["lock", "read", "write"];
const CHANNEL_OPS: &[&str] = &["send", "recv", "recv_timeout", "try_recv"];

fn walk_function(f: &FunctionModel) -> FnLocks {
    let mut out = FnLocks::default();
    let body = &f.body;
    // One-level `let` aliases: `let slot = …self.shards…;` → slot ↦ self.shards.
    let aliases = collect_aliases(f);
    let mut held: Vec<Held> = Vec::new();
    let mut pending_let: Option<String> = None;

    let mut i = 0usize;
    while i < body.len() {
        let t = &body[i].token;
        let depth = body[i].depth;
        match (t.kind, t.text.as_str()) {
            (TokenKind::Ident, "let") => {
                let mut j = i + 1;
                while body.get(j).is_some_and(|b| b.token.text == "mut") {
                    j += 1;
                }
                pending_let = body.get(j).map(|b| b.token.text.clone());
            }
            (TokenKind::Punct, ";") => {
                pending_let = None;
                held.retain(|h| !(h.temp && h.depth >= depth));
            }
            (TokenKind::Punct, "}") => {
                held.retain(|h| h.depth <= depth);
            }
            (TokenKind::Ident, "drop") if body.get(i + 1).is_some_and(|b| b.token.text == "(") => {
                if let Some(b) = body.get(i + 2) {
                    let name = b.token.text.clone();
                    held.retain(|h| h.binding.as_deref() != Some(name.as_str()));
                }
            }
            (TokenKind::Punct, ".") => {
                let method = body.get(i + 1).map(|b| b.token.text.as_str()).unwrap_or("");
                let open = body.get(i + 2).map(|b| b.token.text.as_str()) == Some("(");
                let nullary = open && body.get(i + 3).map(|b| b.token.text.as_str()) == Some(")");
                if ACQUIRERS.contains(&method) && nullary {
                    let line = body[i + 1].token.line;
                    let receiver = receiver_of(body, i, &aliases);
                    // Pairs against everything currently held.
                    for h in &held {
                        if h.name == receiver {
                            out.local.push((
                                "lock-reentrant".into(),
                                receiver.clone(),
                                line,
                                format!(
                                    "`{}` re-acquires `{receiver}` while an earlier acquisition is still held (std locks are not reentrant)",
                                    f.name
                                ),
                            ));
                        } else {
                            out.pairs.push(PairSite {
                                from: h.name.clone(),
                                to: receiver.clone(),
                                line,
                            });
                        }
                    }
                    out.direct.insert(receiver.clone());
                    // Guard disposition: inline-consumed chains are temps;
                    // `let _ =` kills the guard instantly; a named `let`
                    // holds it to the end of the block.
                    let consumed = chain_continues(body, i + 3);
                    match (&pending_let, consumed) {
                        (_, true) => held.push(Held { name: receiver, binding: None, depth, temp: true }),
                        (Some(b), false) if b == "_" => out.local.push((
                            "guard-immediately-dropped".into(),
                            receiver.clone(),
                            line,
                            format!(
                                "`let _ = …{method}()` in `{}`: the `{receiver}` guard is dropped immediately, nothing is protected",
                                f.name
                            ),
                        )),
                        (Some(b), false) => held.push(Held {
                            name: receiver,
                            binding: Some(b.clone()),
                            depth,
                            temp: false,
                        }),
                        (None, false) => held.push(Held { name: receiver, binding: None, depth, temp: true }),
                    }
                    i += 2; // skip past `method (`
                } else if CHANNEL_OPS.contains(&method) && open && !held.is_empty() {
                    let names: Vec<String> = held.iter().map(|h| h.name.clone()).collect();
                    out.local.push((
                        "lock-across-channel".into(),
                        method.to_string(),
                        body[i + 1].token.line,
                        format!(
                            "`{}` performs channel `{method}` while holding {:?}: the holder can block on a peer that needs the lock",
                            f.name, names
                        ),
                    ));
                } else if open && !held.is_empty() && !is_benign_method(method) {
                    out.calls_with_held.push((
                        method.to_string(),
                        held.iter().map(|h| h.name.clone()).collect(),
                        body[i + 1].token.line,
                    ));
                }
            }
            (TokenKind::Ident, name)
                if body.get(i + 1).is_some_and(|b| b.token.text == "(")
                    && !held.is_empty()
                    && i.checked_sub(1)
                        .map(|j| body[j].token.text != "." && body[j].token.text != "::")
                        .unwrap_or(true)
                    && !KEYWORD_CALLS.contains(&name) =>
            {
                out.calls_with_held.push((
                    name.to_string(),
                    held.iter().map(|h| h.name.clone()).collect(),
                    t.line,
                ));
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// After a nullary acquisition `…lock()`, does the method chain continue
/// past `expect` / `unwrap` adapters into a real consumer? If so, the
/// guard is a temporary bound to the statement, not to a `let` binding.
fn chain_continues(body: &[crate::model::BodyToken], mut i: usize) -> bool {
    // i points at the `)` of the acquisition; step past it.
    i += 1;
    loop {
        if body.get(i).map(|b| b.token.text.as_str()) != Some(".") {
            return false;
        }
        let method = body.get(i + 1).map(|b| b.token.text.as_str()).unwrap_or("");
        if method != "expect" && method != "unwrap" {
            return true; // a real consumer: the guard never reaches the let
        }
        // Skip the adapter's argument list.
        if body.get(i + 2).map(|b| b.token.text.as_str()) != Some("(") {
            return false;
        }
        let mut depth = 0usize;
        let mut j = i + 2;
        while let Some(b) = body.get(j) {
            match b.token.text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        i = j + 1;
    }
}

/// Walks backwards from the `.` of an acquisition to name the receiver:
/// the dotted field path with index groups stripped and one-level `let`
/// aliases resolved.
fn receiver_of(
    body: &[crate::model::BodyToken],
    dot: usize,
    aliases: &BTreeMap<String, String>,
) -> String {
    let mut parts: Vec<String> = Vec::new();
    let mut j = dot as i64 - 1;
    while j >= 0 {
        let t = &body[j as usize].token;
        match t.text.as_str() {
            "]" => {
                // Skip the index group.
                let mut depth = 0i64;
                while j >= 0 {
                    match body[j as usize].token.text.as_str() {
                        "]" => depth += 1,
                        "[" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j -= 1;
                }
                j -= 1;
            }
            ")" => {
                // A call in the chain (`.get(i)`): skip its arguments and
                // the method name, keep walking the receiver.
                let mut depth = 0i64;
                while j >= 0 {
                    match body[j as usize].token.text.as_str() {
                        ")" => depth += 1,
                        "(" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j -= 1;
                }
                j -= 1; // the method name
                j -= 1;
            }
            "." | "::" => j -= 1,
            _ if body[j as usize].token.kind == TokenKind::Ident => {
                parts.push(t.text.clone());
                let prev = j - 1;
                if prev >= 0 && matches!(body[prev as usize].token.text.as_str(), "." | "::") {
                    j = prev;
                } else {
                    break;
                }
            }
            _ => break,
        }
    }
    parts.reverse();
    if parts.is_empty() {
        return "<expr>".to_string();
    }
    // Resolve a leading alias one level deep.
    if let Some(target) = aliases.get(&parts[0]) {
        if parts.len() == 1 {
            return target.clone();
        }
        return format!("{target}.{}", parts[1..].join("."));
    }
    parts.join(".")
}

/// `let name = … self.field …;` and `for name in … self.field …` aliases.
fn collect_aliases(f: &FunctionModel) -> BTreeMap<String, String> {
    let body = &f.body;
    let mut aliases = BTreeMap::new();
    let mut i = 0usize;
    while i < body.len() {
        let kw = &body[i].token;
        if kw.kind == TokenKind::Ident && (kw.text == "let" || kw.text == "for") {
            let mut j = i + 1;
            while body.get(j).is_some_and(|b| b.token.text == "mut") {
                j += 1;
            }
            let Some(binding) = body.get(j).map(|b| b.token.text.clone()) else {
                break;
            };
            // Find the first `self.field` in the initializer, up to `;`
            // (for `let`) or `{` (for `for`).
            let stop = if kw.text == "let" { ";" } else { "{" };
            let mut k = j + 1;
            while let Some(b) = body.get(k) {
                if b.token.text == stop {
                    break;
                }
                if b.token.text == "self"
                    && body.get(k + 1).is_some_and(|n| n.token.text == ".")
                    && body
                        .get(k + 2)
                        .is_some_and(|n| n.token.kind == TokenKind::Ident)
                {
                    aliases
                        .entry(binding.clone())
                        .or_insert_with(|| format!("self.{}", body[k + 2].token.text));
                    break;
                }
                k += 1;
            }
            i = j;
        }
        i += 1;
    }
    aliases
}

/// Methods that never take locks and clutter the call-with-held list.
fn is_benign_method(name: &str) -> bool {
    matches!(
        name,
        "expect"
            | "unwrap"
            | "unwrap_or"
            | "unwrap_or_default"
            | "unwrap_or_else"
            | "clone"
            | "len"
            | "is_empty"
            | "iter"
            | "into_iter"
            | "push"
            | "push_back"
            | "pop"
            | "pop_front"
            | "insert"
            | "get"
            | "contains"
            | "fetch_add"
            | "fetch_sub"
            | "load"
            | "store"
            | "to_string"
            | "as_str"
            | "map"
            | "and_then"
            | "ok_or"
            | "collect"
            | "extend"
    )
}

const KEYWORD_CALLS: &[&str] = &[
    "if",
    "while",
    "match",
    "for",
    "loop",
    "return",
    "Some",
    "Ok",
    "Err",
    "None",
    "Vec",
    "vec",
    "assert",
    "debug_assert",
    "format",
    "println",
    "panic",
    "write",
    "writeln",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::scan_file;

    fn config() -> Config {
        Config {
            forbid_unsafe_crates: vec![],
            secret_crates: vec![],
            secret_roots: vec![],
            secret_ignore_calls: vec![],
            lock_crates: vec!["c".into()],
            no_unwrap_crates: vec![],
        }
    }

    fn run_on(src: &str) -> Vec<Finding> {
        let files = vec![scan_file("c", "src/lib.rs", src)];
        let mut waivers = WaiverIndex::new(&files);
        run(&files, &config(), &mut waivers)
    }

    #[test]
    fn ab_ba_inversion_is_a_cycle() {
        let src = "
impl S {
    fn f(&self) { let a = self.alpha.lock().unwrap(); let b = self.beta.lock().unwrap(); }
    fn g(&self) { let b = self.beta.lock().unwrap(); let a = self.alpha.lock().unwrap(); }
}";
        let f = run_on(src);
        let cycles: Vec<&Finding> = f.iter().filter(|f| f.rule == "lock-order-cycle").collect();
        assert_eq!(
            cycles.len(),
            2,
            "both ends of the inversion are reported: {f:?}"
        );
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = "
impl S {
    fn f(&self) { let a = self.alpha.lock().unwrap(); let b = self.beta.lock().unwrap(); }
    fn g(&self) { let a = self.alpha.lock().unwrap(); let b = self.beta.lock().unwrap(); }
}";
        assert!(run_on(src).iter().all(|f| f.rule != "lock-order-cycle"));
    }

    #[test]
    fn indexed_receivers_and_rwlock_methods_classify_by_field() {
        let src = "
impl S {
    fn f(&self, i: usize) { let g = self.shards[i].read().unwrap(); let c = self.caches[i].lock().unwrap(); }
    fn g(&self, i: usize) { let c = self.caches[i].lock().unwrap(); let g = self.shards[i].write().unwrap(); }
}";
        let f = run_on(src);
        assert!(
            f.iter().any(|f| f.rule == "lock-order-cycle" && f.key.contains("self.shards->self.caches")),
            "{f:?}"
        );
    }

    #[test]
    fn inline_consumed_guard_is_released_at_statement_end() {
        // The lock in the first statement is consumed inline, so the
        // second acquisition does not overlap it: no pair, no cycle.
        let src = "
impl S {
    fn f(&self) { self.alpha.lock().expect(\"p\").insert(1); self.beta.lock().expect(\"p\").insert(2); }
    fn g(&self) { self.beta.lock().expect(\"p\").insert(2); self.alpha.lock().expect(\"p\").insert(1); }
}";
        assert!(run_on(src).iter().all(|f| f.rule != "lock-order-cycle"));
    }

    #[test]
    fn reentrant_acquisition_is_flagged() {
        let src = "impl S { fn f(&self) { let a = self.m.lock().unwrap(); let b = self.m.lock().unwrap(); } }";
        let f = run_on(src);
        assert!(f.iter().any(|f| f.rule == "lock-reentrant"), "{f:?}");
    }

    #[test]
    fn channel_send_under_lock_is_flagged() {
        let src = "impl S { fn f(&self) { let g = self.m.lock().unwrap(); self.tx.send(1); } }";
        let f = run_on(src);
        assert!(f.iter().any(|f| f.rule == "lock-across-channel"), "{f:?}");
    }

    #[test]
    fn channel_send_without_lock_is_clean() {
        let src = "impl S { fn f(&self) { self.tx.send(1); let g = self.m.lock().unwrap(); } }";
        assert!(run_on(src).iter().all(|f| f.rule != "lock-across-channel"));
    }

    #[test]
    fn let_underscore_guard_is_flagged() {
        let src = "impl S { fn f(&self) { let _ = self.m.lock().unwrap(); self.x += 1; } }";
        let f = run_on(src);
        assert!(
            f.iter().any(|f| f.rule == "guard-immediately-dropped"),
            "{f:?}"
        );
    }

    #[test]
    fn guard_returning_signature_is_flagged() {
        let src = "impl S { fn get(&self) -> RwLockReadGuard<'_, T> { self.m.read().unwrap() } }";
        let f = run_on(src);
        assert!(
            f.iter().any(|f| f.rule == "guard-escapes-function"),
            "{f:?}"
        );
    }

    #[test]
    fn interprocedural_pairs_via_call_graph() {
        // f holds alpha and calls g, which takes beta; h takes them in the
        // reverse order directly → cycle across function boundaries.
        let src = "
impl S {
    fn f(&self) { let a = self.alpha.lock().unwrap(); self.g(); }
    fn g(&self) { let b = self.beta.lock().unwrap(); }
    fn h(&self) { let b = self.beta.lock().unwrap(); let a = self.alpha.lock().unwrap(); }
}";
        let f = run_on(src);
        assert!(f.iter().any(|f| f.rule == "lock-order-cycle"), "{f:?}");
    }

    #[test]
    fn alias_resolution_tracks_field_paths() {
        let src = "
impl S {
    fn f(&self, i: usize) -> Result<(), E> {
        let slot = self.shards.get(i).ok_or(E)?;
        let g = slot.write().unwrap();
        let c = self.caches.lock().unwrap();
        Ok(())
    }
    fn g(&self) { let c = self.caches.lock().unwrap(); let s = self.shards.write().unwrap(); }
}";
        let f = run_on(src);
        assert!(
            f.iter().any(|f| f.rule == "lock-order-cycle" && f.key.contains("self.shards->self.caches")),
            "aliased receiver must resolve to self.shards: {f:?}"
        );
    }

    #[test]
    fn explicit_drop_releases_the_guard() {
        let src = "
impl S {
    fn f(&self) { let a = self.alpha.lock().unwrap(); drop(a); let b = self.beta.lock().unwrap(); }
    fn g(&self) { let b = self.beta.lock().unwrap(); drop(b); let a = self.alpha.lock().unwrap(); }
}";
        assert!(run_on(src).iter().all(|f| f.rule != "lock-order-cycle"));
    }
}
