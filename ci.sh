#!/usr/bin/env sh
# Full CI gate, runnable offline on any machine with the Rust toolchain.
# Mirrors .github/workflows/ci.yml.
set -eux

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings

# Tier-1: release build plus the root integration suites.
cargo build --release
cargo test -q

# Everything else: every crate's unit, integration and property tests.
# (tests/cli.rs drives the scald-tv binary end to end: exit codes,
# --help coverage, and the --format json golden round-trip.)
cargo test --workspace -q

# The CLI integration suite alone, named so a red run points here.
cargo test -q --test cli

# The engine-determinism property suites alone, same reason: a run,
# a 64-case sweep included, emits every trace event on the calling
# thread; its error paths (oscillation, mid-wave budget trips, unknown
# case signals), checkpoint and wave telemetry hold; reports with the
# eval cache on and off differ only in its counts; and the wave and
# state interning stores must stay bounded.
cargo test -q -p scald-verifier --test run_contract --test eval_cache --test store_growth
cargo test -q -p scald-verifier --test run_contract -- a_sweep_runs_on_the_calling_thread

# The eval-cache counting rule alone: every interleaving of three
# threads' lookups and inserts on one shared cache (daemon requests on
# one design), for shared and distinct keys, counts what one thread
# counts.
cargo test -q -p scald-verifier --lib counts_match_one_worker_in_every_interleaving

# The delta checker pass against its oracle: the walk-everything pass it
# replaced runs beside every node and leaf delta pass of seeded case-tree
# runs (sweeps, S-1 sweeps, corner crosses, the register file, hazard
# and assertion designs) and must agree on violations, firing sets and
# counts; the corpus must keep every firing set non-empty.
cargo test -q -p scald-verifier --lib delta_passes_match_the_walk_oracle

# The checker-key oracles: the per-instance full pass and the
# per-checker slack loop run beside every keyed full pass and slack view
# over corpora where each part of the key decides a verdict (inverted
# pins, wire-delay overrides, Z/H heads, skews, corner crosses, pulse
# widths, the register file, shared keys), and must agree on violations,
# firing sets, counts and every margin; keys from two wave stores must
# never collide.
cargo test -q -p scald-verifier --lib -- keyed_checker_passes_match_the_per_instance_oracle keyed_slack_matches_the_per_checker_loop keys_tell_wave_stores_apart

# The eval-cache key oracle: every packed key (inline state-id pins, one
# carried hash) is also built as the `Vec` key it replaced, and two keys
# must be equal exactly when their old keys are, over seeded S-1, scale
# and sweep runs with cases and corner crosses, propagating directive
# chains, fan-in above the inline pins, skews, and keys differing in one
# part each (the wave, each skew half, the tail, the pin count, the
# corner); a wave interned in two wave stores is one pin.
cargo test -q -p scald-verifier --lib -- packed_keys_match_the_vec_key_oracle keys_differing_in_one_part_stay_apart

# The packed descriptor signatures against the `Debug`-string interner:
# generated and figure designs plus one setting every field the packing
# must keep apart (long and prefix-sharing directives, every `Const`,
# `Mux`/`Reg`/`Latch` parameters, `Delay`, edge delays on `Not` and
# `Buf`), and two netlists numbered in first-occurrence order.
cargo test -q -p scald-verifier --lib -- descriptor_signatures_match_the_debug_string_interner two_netlists_number_in_first_occurrence_order

# The report's summary rows against the sorted-copy path they replaced:
# the Fig 3-10 listing, the JSON summary rows, the timing diagram and
# Report::waves, over names whose base and full orders differ, names
# sharing more than 16 leading bytes, multi-byte names and an empty design.
cargo test -q -p scald-verifier --test summary_view

# MemoStats and PrefixStats pinned to values captured from the walk: the case-sweep bench design at 10 and 100 cases, two
# sweeps with violations, and the register file as one case (no node
# pass) and as cases sharing no prefix (one base pass).
cargo test -q -p scald-verifier --test memo_pins

# The case-tree suite alone: 50-seed property that every case of a sweep
# matches that case run alone on a clone of the settled verifier, plus
# the unknown-signal and failing-prefix error paths.
cargo test -q -p scald-verifier --test case_tree
cargo test -q -p scald-wave --test store_props

# The daemon suites alone: protocol robustness (malformed frames, torn
# lines, disconnects, timeouts, shutdown-while-busy) and the 50-design
# property that daemon reports are byte-identical to direct runs.
cargo test -q -p scald-serve --test daemon --test serve_props

# The open deadline alone: a source whose compile takes ten times the
# request deadline and then fails answers a timeout, the orphaned
# compile gives back its run, and the daemon still opens and drains.
cargo test -q -p scald-serve --test daemon -- open_compiles_under_the_request_deadline

# The frame cap alone: a frame over MAX_FRAME_BYTES and a frame that is
# not UTF-8 each get a parse error and the connection answers on; a torn
# oversized final frame ends the connection unanswered.
cargo test -q -p scald-serve --test daemon -- oversized_and_non_utf8_frames_are_parse_errors_and_the_connection_lives a_torn_oversized_final_frame_ends_the_connection

# The HDL expander pins: golden FNV-1a hashes of every expansion of the
# shipped designs, s1_like_hdl and the rtl_pairs twins, and the
# allocation budget per emitted primitive (a counting global allocator;
# budget 2.5, measured 1.97; 8.2 when the netlist held one record per
# primitive, against a budget of 16).
cargo test -q --test expand_golden --test expand_allocs

# The render-path pins: the allocation budgets per signal for building a
# report from a settled verifier (2) and for turning it into its JSON
# document and summary listing (8), with a counting global allocator,
# the bytes a small design's listings ask for, which must not grow with
# the states the process has interned, and the oracle suites that keep the
# earlier `f64` time formatter, `segments()` waveform listing and two
# JSON writers as references for the rewritten text forms.
cargo test -q --test render_allocs
cargo test -q -p scald-wave --test display_oracle
cargo test -q -p scald-trace --test json_oracle

# The settle's allocation pins (a counting global allocator): a warm
# settle of a 400-chip S-1 design against a cache an identical settle
# filled makes no miss and at most 0.02 allocations per hit, and a
# 4,096-case mode sweep asks for no more bytes per case-tree unit when
# the master cone grows sixteenfold.
cargo test -q --test settle_allocs

# The netlist's memory pins (a counting global allocator): a generated
# 20,000-primitive scale design keeps at most 150 heap bytes live per
# primitive (125.6 measured) and costs at most 0.2 allocations per
# primitive to generate (0.143 measured); the per-primitive records the
# columns replaced kept 547.9 bytes and cost 8.28 allocations.
cargo test -q --test netlist_allocs

# The warm-edit pins: the allocation budgets of a one-line source edit
# (1.59 per primitive beyond compiling it, 1.555 to 1.565 measured; the
# budget was 1.6) and of the daemon's `report` frame encode + decode (16
# per signal), and the oracles that keep the earlier `format!`-based
# content keys and `BTreeMap` diff, the copy-then-strip report document
# and the borrowing frame encoder as references.
cargo test -q --test apply_allocs
cargo test -q -p scald-incr --lib content_keys_match_the_format_oracle
cargo test -q -p scald-verifier --test stripped_json
cargo test -q -p scald-serve --lib frames_match_the_borrowing_encoder_oracle

# The RTL frontend suites: the cascade-race lowering, the spanned-
# diagnostics failure surface, and the 50-seed cross-frontend property
# that Verilog and SCALD HDL twins produce byte-identical reports.
cargo test -q -p scald-rtl --test cascade_race --test failures
cargo test -q --test cross_frontend

# The gated-clock RTL design must be *red*: the verifier has to flag the
# cascade race (exit 1), not pass it, fail on usage (2) or panic (101).
status=0
cargo run -q --release --bin scald-tv -- designs/cascade_race.v || status=$?
test "$status" -eq 1

# Smoke the cache A/B bench harness (tiny design); the full run
# regenerates BENCH_cache.json.
cargo run -q -p scald-bench --release --bin cache_stats -- --chips 40 --out target/BENCH_cache_smoke.json

# Smoke the scale sweep at ~5k primitives (the committed BENCH_scale.json
# sweeps 1k..1M; this proves the generator + sweep harness stay runnable),
# and require the v3 record: the step's live heap and allocations after
# generation, build, run and report.
cargo run -q -p scald-bench --release --bin scale_sweep -- --steps 5000 --reps 1 --out target/BENCH_scale_smoke.json
grep -q '"version": 3' target/BENCH_scale_smoke.json
for phase in gen build run report; do
  grep -q "\"$phase\": {" target/BENCH_scale_smoke.json
done
test "$(grep -c '"live_bytes"' target/BENCH_scale_smoke.json)" -eq 4
test "$(grep -c '"allocations"' target/BENCH_scale_smoke.json)" -eq 4

# Smoke the serve loadtest with 4 concurrent clients on a small design
# (the committed BENCH_serve.json uses --chips 400 --rounds 3).
cargo run -q -p scald-bench --release --bin loadtest -- --clients 4 --chips 60 --rounds 1 --out target/BENCH_serve_smoke.json

# Smoke the case-sweep bench, 1000 cases on a slimmed design (the
# committed BENCH_cases.json and BENCH_sched.json use the default
# --master 1500): one sweep run and each case run alone must find the
# same violations, and both records must be written.
cargo run -q -p scald-bench --release --bin case_tree -- --counts 10,1000 --master 100 --block 4 --out-dir target/bench_cases_smoke

# Smoke the incremental-vs-full bench on a tiny design (the committed
# BENCH_incr.json uses the default 400 chips): a one-primitive retime
# must re-verify with under 10% of the full run's events.
cargo run -q -p scald-bench --release --bin incr_vs_full -- --chips 40 --out target/BENCH_incr_smoke.json

# A mistyped bench flag is a usage error (exit 2), not a run at the
# default size. (A `!`-negated command cannot fail a `set -e` script,
# so the status is tested.)
status=0
cargo run -q -p scald-bench --release --bin scale_sweep -- --step 40 || status=$?
test "$status" -eq 2

# The benchmark's self-tests: all four workloads at tiny size, in both
# trace modes (its own Cargo package; see e2ebench/README.md).
cargo test --release --manifest-path e2ebench/Cargo.toml

# Examples must keep building; incr_session doubles as a smoke test of
# the incremental re-verification subsystem (it asserts the warm report
# is byte-identical to a cold run).
cargo build --examples
cargo run -q --example incr_session

# Rendered docs must stay warning-free; the report JSON schema lives in
# crates/verifier/src/report.rs module docs.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
