.PHONY: all build test bench-smoke bench-hotpath torture-smoke server-smoke failover-smoke cluster-smoke nettorture-smoke query-smoke migrate-smoke check clean

all: build

build:
	dune build

test:
	dune runtest

# A fast end-to-end proof that the parallel evaluation runtime works and
# stays byte-identical to the sequential path: the Figure 7 section on two
# domains, diffed against the sequential CLI output.
bench-smoke: build
	dune exec bench/main.exe -- matrix -j 2 > /dev/null
	dune exec bin/xmlrepro.exe -- matrix > _build/matrix-seq.out
	dune exec bin/xmlrepro.exe -- matrix --jobs 2 > _build/matrix-par.out
	diff _build/matrix-seq.out _build/matrix-par.out

# The measurement hot path benchmark: legacy vs incremental statistics on
# one build, asserting byte-identical observable output for every kernel
# and running the paranoid cross-check over the whole registry. Writes
# BENCH_hotpath.json and exits non-zero if any kernel's outputs diverge.
bench-hotpath: build
	dune exec bench/main.exe -- hotpath

# Crash-consistency torture: a small seeded workload, a power cut at every
# syscall boundary, recovery verified on every surviving disk image. Exits
# non-zero on any durability violation.
torture-smoke: build
	dune exec bin/xmlrepro.exe -- torture --seeds 2 --ops 200

# Network server smoke: an in-process loopback serve driven by the seeded
# load generator (6 clients ganged up on 2 shared documents so the
# group-commit flusher has appends to coalesce — any protocol error
# fails the run), then offline recovery of a journal the server wrote,
# proving its on-disk state is an ordinary durable journal.
server-smoke: build
	rm -rf _build/server-smoke
	dune exec bin/xmlrepro.exe -- loadgen --self-serve --root _build/server-smoke \
	  --clients 6 --docs 2 --ops 10000 --seed 1 --schemes QED,Vector,ORDPATH \
	  --commit-interval 800 --commit-max 32
	dune exec bin/xmlrepro.exe -- journal recover _build/server-smoke/doc-0.journal

# Replication failover torture: a primary/replica pair on simulated file
# systems, a power cut at every syscall boundary on either side, the
# promoted replica checked against exactly the acknowledged durable
# prefix. Exits non-zero on any violation.
failover-smoke: build
	dune exec bin/xmlrepro.exe -- failover --seeds 2 --ops 120

# Cluster smoke: 3 shards with one replica each as real child processes,
# a mixed load routed by document hash (any protocol error fails the
# run), replication drained, then SIGKILL of a primary — the promoted
# replica must serve the same bytes and take writes.
cluster-smoke: build
	rm -rf _build/cluster-smoke
	dune exec bin/xmlrepro.exe -- cluster --root _build/cluster-smoke \
	  --shards 3 --replicas 1 --smoke --smoke-ops 600 \
	  --commit-interval 1000 --commit-max 32

# Network-fault torture smoke: the exactly-once update path with a
# deterministic fault (drop/reset/truncate/partition/delay) injected at a
# sampled set of socket-syscall coordinates, on both server cores, plus
# the dedup-disabled negative control and the crash-recovery dedup check.
# Exits non-zero on any double- or lost-apply, or if the control fails to
# catch doubles.
nettorture-smoke: build
	dune exec bin/xmlrepro.exe -- nettorture --ops 8 --seeds 1 --points 120

# Wire-query smoke: a paranoid in-process server (every served XPath/twig
# answer re-verified against the scan evaluator over the same snapshot
# rows) under the read-heavy 95/5 query/mutation mix. Any protocol error
# or paranoid divergence fails the run. The second stanza serves
# 1,000-node documents, whose index trees span many B+-tree leaves under
# an inner level, with every 10th step a migration batch that moves whole
# subtrees; the scan re-check is quadratic in document size, so it runs
# fewer ops (budget: 30 s; 13 s on a 2-core VM).
query-smoke: build
	rm -rf _build/query-smoke
	dune exec bin/xmlrepro.exe -- loadgen --self-serve --paranoid \
	  --root _build/query-smoke --clients 4 --docs 2 --ops 4000 --seed 3 \
	  --nodes 60 --query-pct 95 --schemes QED,ORDPATH
	rm -rf _build/query-smoke
	dune exec bin/xmlrepro.exe -- loadgen --self-serve --paranoid \
	  --root _build/query-smoke --clients 4 --docs 2 --ops 1200 --seed 5 \
	  --nodes 1000 --query-pct 95 --migrate-every 10 --schemes QED,ORDPATH

# Schema-migration smoke: the offline per-scheme storm (every operator
# kind, oracle-replay verified on a byte-identical twin — any
# disagreement exits non-zero), then migration batches over the wire: a
# self-served load with every 25th step a wrap migration, proving the
# migrate/* gauges move and the batch path serves cleanly under load.
migrate-smoke: build
	rm -rf _build/migrate-smoke
	dune exec bin/xmlrepro.exe -- migrate --steps 24 --nodes 120
	dune exec bin/xmlrepro.exe -- loadgen --self-serve \
	  --root _build/migrate-smoke --clients 4 --ops 2000 --seed 4 \
	  --nodes 60 --migrate-every 25 --schemes QED,ORDPATH

check: build test bench-smoke bench-hotpath torture-smoke server-smoke failover-smoke cluster-smoke nettorture-smoke query-smoke migrate-smoke

clean:
	dune clean
