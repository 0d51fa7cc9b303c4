#!/usr/bin/env bash
# Build `fq` and the benchmark from source, then run one benchmark:
#   bash perfbench/run.sh --workload serve_read --seed 1 --seconds 15 --trace 0
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); inputs and run records to .bench_work.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin fq >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/fq-perfbench" \
  --fq "$CARGO_TARGET_DIR/release/fq" --work .bench_work "$@"
