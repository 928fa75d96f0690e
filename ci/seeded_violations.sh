#!/usr/bin/env bash
# Seeded-violation check for the determinism rules D001-D006 (DESIGN.md
# "Determinism invariants & static analysis").
#
# The rules live in clippy.toml and the root Cargo.toml's [workspace.lints].
# For each rule this script appends one violation to crates/core/src/lib.rs,
# runs clippy on that crate and requires both a failure and the rule's own
# diagnostic, then restores the file with `git checkout`. It also requires
# every non-vendor workspace member to opt into the workspace lints, which
# is the part of D006 the compiler cannot see.
#
# Usage, from anywhere inside the repository:
#   bash ci/seeded_violations.sh
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"
target=crates/core/src/lib.rs
if ! git diff --quiet -- "$target"; then
    echo "error: $target has uncommitted changes; the check restores it with git checkout" >&2
    exit 1
fi
trap 'git checkout -- "$target"' EXIT

failures=0
clippy() {
    cargo clippy --quiet -p daris-core --lib -- -D warnings 2>&1
}

echo "unmodified tree"
if ! out=$(clippy); then
    echo "$out"
    echo "FAIL: clippy rejects the unmodified tree" >&2
    exit 1
fi

# seed <rule> <expected diagnostic> <snippet>
seed() {
    local rule=$1 expected=$2 snippet=$3 out
    printf '\n%s\n' "$snippet" >> "$target"
    if out=$(clippy); then
        echo "FAIL $rule: clippy accepted the seeded violation" >&2
        failures=$((failures + 1))
    elif ! grep -qF -- "$expected" <<<"$out"; then
        echo "$out"
        echo "FAIL $rule: clippy failed without \"$expected\"" >&2
        failures=$((failures + 1))
    else
        echo "ok   $rule: $expected"
    fi
    git checkout -- "$target"
}

seed D001 "disallowed type" '/// Seeded D001 violation.
pub fn seeded_d001() -> usize {
    std::collections::HashMap::<u32, u32>::new().len()
}'

seed D002 "disallowed method" '/// Seeded D002 violation.
pub fn seeded_d002() -> std::time::Instant {
    std::time::Instant::now()
}'

seed D002 "disallowed method" '/// Seeded D002 violation.
pub fn seeded_d002() -> bool {
    std::time::UNIX_EPOCH.elapsed().is_ok()
}'

seed D004 "disallowed method" '/// Seeded D004 violation.
pub fn seeded_d004() -> bool {
    std::thread::spawn(|| ()).join().is_ok()
}'

seed D005 "may lose the sign" '/// Seeded D005 violation.
pub fn seeded_d005(x: f64) -> daris_gpu::SimDuration {
    daris_gpu::SimDuration::from_nanos((x * 1e6) as u64)
}'

seed D006 "usage of an \`unsafe\` block" '/// Seeded D006 violation.
pub fn seeded_d006(x: &u8) -> u8 {
    unsafe { std::ptr::read(x) }
}'

# Every non-vendor member must carry `[lints] workspace = true`; a package
# without it would silently drop `unsafe_code = "forbid"` and the D005 lint.
manifests=$(cargo metadata --no-deps --format-version 1 \
    | grep -o '"manifest_path":"[^"]*"' | cut -d'"' -f4 | grep -v '/vendor/')
for manifest in $manifests; do
    if awk '/^\[/ { in_lints = ($0 == "[lints]") }
            in_lints && /^workspace *= *true/ { found = 1 }
            END { exit !found }' "$manifest"; then
        echo "ok   D006: ${manifest#"$PWD"/} opts into the workspace lints"
    else
        echo "FAIL D006: ${manifest#"$PWD"/} lacks [lints] workspace = true" >&2
        failures=$((failures + 1))
    fi
done

if ((failures > 0)); then
    echo "$failures seeded-violation check(s) failed" >&2
    exit 1
fi
echo "every determinism rule rejects its seeded violation"
