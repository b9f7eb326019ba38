# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench examples bugs smoke clean

all: build

build:
	dune build @all

test:
	dune runtest --force

bench:
	dune exec bench/main.exe

# Reproduce the corpus (exits non-zero if any case regresses).
bugs:
	dune exec bin/sieve_cli.exe -- bugs

# Build + exercise the CLI end to end: corpus listing, one bug
# reproduction, and a JSONL trace dump validated by the trace reader.
# The same checks run from `dune runtest` (see test/dune).
smoke:
	dune build @all
	dune exec bin/sieve_cli.exe -- list
	dune exec bin/sieve_cli.exe -- bugs k8s-56261
	dune exec bin/sieve_cli.exe -- trace k8s-56261 --json > _build/smoke-trace.jsonl
	dune exec test/validate_jsonl.exe < _build/smoke-trace.jsonl

examples:
	dune exec examples/quickstart.exe
	dune exec examples/rolling_upgrade.exe
	dune exec examples/cassandra_scaledown.exe
	dune exec examples/epoch_model.exe
	dune exec examples/replicated_store.exe
	dune exec examples/hbase_regions.exe

clean:
	dune clean
