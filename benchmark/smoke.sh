#!/usr/bin/env bash
# Format, lint, unit tests and a one-second pass over every workload, all
# through this package's own manifest and without the network. A later
# change can call this from ci.sh; today nothing outside benchmark/ does.
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=(--manifest-path benchmark/Cargo.toml)

cargo fmt "${manifest[@]}" --check
cargo clippy "${manifest[@]}" --offline --all-targets -- -D warnings
cargo test "${manifest[@]}" --offline
cargo run "${manifest[@]}" --offline --release --quiet -- --seconds 1 --workload all
