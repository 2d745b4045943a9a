//! The README states how many CI lanes, examples, criterion benches,
//! workspace members and integration suites the repository has. This suite
//! recounts each from the source, so a count that drifts fails here
//! instead of being fixed by hand later.

use std::fs;
use std::path::PathBuf;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    let path = root().join(rel);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// `.rs` files directly inside `rel`.
fn rust_files(rel: &str) -> usize {
    fs::read_dir(root().join(rel))
        .unwrap_or_else(|e| panic!("listing {rel}: {e}"))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .count()
}

/// A count spelled as digits or as an English number word.
fn number(word: &str) -> Option<usize> {
    const WORDS: &str = "zero one two three four five six seven eight nine ten eleven \
                         twelve thirteen fourteen fifteen sixteen seventeen eighteen \
                         nineteen twenty";
    word.parse()
        .ok()
        .or_else(|| WORDS.split(' ').position(|w| w.eq_ignore_ascii_case(word)))
}

/// Every count the README states right before `noun` (line breaks read as
/// spaces). Occurrences not preceded by a number are prose, not counts.
fn stated(readme: &str, noun: &str) -> Vec<usize> {
    let text = readme.split_whitespace().collect::<Vec<_>>().join(" ");
    text.match_indices(&format!(" {noun}"))
        .filter_map(|(at, _)| text[..at].rsplit(' ').next().and_then(number))
        .collect()
}

/// Asserts the README states `noun`'s count at least once and always as
/// `actual`.
fn check(readme: &str, noun: &str, actual: usize) {
    let counts = stated(readme, noun);
    assert!(!counts.is_empty(), "README states no count of {noun:?}");
    for count in counts {
        assert_eq!(
            count, actual,
            "README says {count} {noun}, the source has {actual}"
        );
    }
}

/// Job names in a GitHub Actions workflow: the keys indented one level
/// under `jobs:`.
fn workflow_jobs(yaml: &str) -> usize {
    yaml.lines()
        .skip_while(|l| l.trim_end() != "jobs:")
        .skip(1)
        .filter(|l| {
            let key = l.strip_prefix("  ").unwrap_or("");
            !key.starts_with([' ', '#']) && key.ends_with(':') && !key.contains(' ')
        })
        .count()
}

/// The quoted paths of the root manifest's `members = [...]` list.
fn workspace_members(manifest: &str) -> Vec<String> {
    let list = manifest
        .split_once("\nmembers = [")
        .and_then(|(_, rest)| rest.split_once(']'))
        .map(|(list, _)| list)
        .expect("root Cargo.toml declares members = [...]");
    list.split('"')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect()
}

#[test]
fn readme_counts_match_the_source() {
    let readme = read("README.md");
    check(
        &readme,
        "parallel lanes",
        workflow_jobs(&read(".github/workflows/ci.yml")),
    );
    check(&readme, "`examples/`", rust_files("examples"));
    check(
        &readme,
        "criterion benches",
        rust_files("crates/bench/benches"),
    );
    check(&readme, "integration suites", rust_files("tests"));

    let members = workspace_members(&read("Cargo.toml"));
    let under = |dir: &str| members.iter().filter(|m| m.starts_with(dir)).count();
    // The root package (the `dpe` facade) is a member beside the list.
    check(&readme, "members:", members.len() + 1);
    check(&readme, "crates under `crates/`", under("crates/"));
    check(&readme, "vendored shims", under("vendor/"));
}
