#!/usr/bin/env sh
# Counts non-test Rust lines: every line of src/, crates/ and examples/
# outside tests/ directories, up to each file's first `#[cfg(test)]` line
# (everything from there on is test code). Prints one number.
set -eu

cd "$(dirname "$0")/.."

find src crates examples -name '*.rs' -not -path '*/tests/*' | sort |
    xargs awk 'FNR==1{skip=0} /^#\[cfg\(test\)\]/{skip=1} !skip{n++} END{print n}'
