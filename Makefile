# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench smoke examples docs clean loc

all: build

build:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe

# The one gate harness CI runs: the test suite (every former CLI
# selftest lives there), the reduced BENCH sections (one process each,
# so no section inherits another's heap; written under _smoke/, never
# over the committed full-run files), the paper tables and the
# interpreted core's own sections (isa, sha1-asm), the perfbench
# cost-ladder oracles, and the artifact-producing CLI drivers
# (profile.folded, profile.perfetto.json, diagnosis.jsonl,
# replay.perfetto.json) for upload.
smoke: build
	dune runtest
	for s in hotpath obs-overhead chaos trace sched prof server forensics session; do \
	  BENCH_SMOKE=1 dune exec bench/main.exe -- $$s || exit 1; done
	dune exec bench/main.exe -- table1 table2 table3 overhead clocks lattice isa sha1-asm
	python3 perfbench/run.py --workload all --seed 1 --seconds 2 --smoke
	dune exec bin/ra_cli.exe -- profile --folded profile.folded --out profile.perfetto.json
	dune exec bin/ra_cli.exe -- replay --diagnosis diagnosis.jsonl --perfetto replay.perfetto.json

examples:
	dune exec examples/quickstart.exe
	dune exec examples/dos_battery.exe
	dune exec examples/roaming_adversary.exe
	dune exec examples/iot_fleet.exe
	dune exec examples/secure_update.exe
	dune exec examples/isa_attest.exe
	dune exec examples/interpreted_anchor.exe

clean:
	dune clean

loc:
	@find lib test bench bin examples -name '*.ml' -o -name '*.mli' | xargs wc -l | tail -1
