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

# The engine-determinism property suites alone, same reason: reports
# from the wave engine and the case fan-out must stay byte-identical for
# every worker count, eval-cache hit and miss counts included (a miss
# that another worker's insert beat counts as a hit, as one worker would
# see it); with the cache on and off they differ only in those counts;
# and the interning store must stay bounded.
cargo test -q -p scald-verifier --test parallel_settle --test parallel_cases --test eval_cache --test store_growth

# The eval-cache counting rule alone: every interleaving of three
# workers' lookups and inserts, for shared and distinct keys, counts
# what one worker counts.
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

# The eval-cache key oracle: every packed key (inline pins, one carried
# hash, interned tail ids) is also built as the `Vec` key it replaced,
# and two keys must be equal exactly when their old keys are, over
# seeded S-1, scale and sweep runs with cases and corner crosses,
# propagating directive chains, fan-in above the inline pins, skews, and
# keys differing in one part each (two wave stores, each skew half, the
# tail, the pin count, the corner).
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

# MemoStats and PrefixStats pinned at 1/2/8 workers to values captured
# from the walk: the case-sweep bench design at 10 and 100 cases, two
# sweeps with violations, and the register file as one case (no node
# pass) and as cases sharing no prefix (one base pass).
cargo test -q -p scald-verifier --test memo_pins

# The case-tree suite alone: 50-seed property that every case of a sweep
# matches that case run alone on a clone of the settled verifier, with
# stripped reports byte-identical at 1/2/8 workers, plus the
# unknown-signal and failing-prefix error paths.
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
# allocation budget per emitted primitive (a counting global allocator).
cargo test -q --test expand_golden --test expand_allocs

# The render-path pins: the allocation budgets per signal for building a
# report from a settled verifier (2) and for turning it into its JSON
# document and summary listing (8), with a counting global allocator,
# and the oracle suites that keep the
# earlier `f64` time formatter, `segments()` waveform listing and two
# JSON writers as references for the rewritten text forms.
cargo test -q --test render_allocs
cargo test -q -p scald-wave --test display_oracle
cargo test -q -p scald-trace --test json_oracle

# The eval-cache hit pin: a warm settle of a 400-chip S-1 design against
# a cache an identical settle filled makes no miss and at most 0.05
# allocations per hit (a counting global allocator).
cargo test -q --test settle_allocs

# The warm-edit pins: the allocation budgets of a one-line source edit
# (2.5 per primitive, beyond compiling it) and of the daemon's `report`
# frame encode + decode (16 per signal), and the oracles that keep the earlier
# `format!`-based content keys and `BTreeMap` diff, the copy-then-strip
# report document and the borrowing frame encoder as references.
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
# cascade race (exit 1), not pass it.
! cargo run -q --release --bin scald-tv -- designs/cascade_race.v

# Smoke the settle-scaling and cache A/B bench harnesses (tiny design);
# the full runs regenerate BENCH_settle.json / BENCH_cache.json.
cargo run -q -p scald-bench --release --bin settle_scaling -- --chips 40 --workers 1 --out target/BENCH_settle_smoke.json
cargo run -q -p scald-bench --release --bin cache_stats -- --chips 40 --out target/BENCH_cache_smoke.json

# Smoke the scale sweep at ~5k primitives (the committed BENCH_scale.json
# sweeps 1k..1M; this proves the generator + sweep harness stay runnable).
cargo run -q -p scald-bench --release --bin scale_sweep -- --steps 5000 --reps 1 --out target/BENCH_scale_smoke.json

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
cargo run -q -p scald-bench --release --bin settle_scaling -- --chip 40 || status=$?
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
