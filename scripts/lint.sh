#!/bin/sh
# Repository hygiene checks, run as CI's lint job alongside the
# warnings-as-errors build (dune build @check).
set -eu
cd "$(dirname "$0")/.."

fail=0

# no trailing whitespace in tracked sources (SNIPPETS.md is verbatim
# reference material and exempt)
if git grep -lI ' $' -- . ':!SNIPPETS.md' >/dev/null 2>&1; then
  echo "lint: trailing whitespace in:"
  git grep -lI ' $' -- . ':!SNIPPETS.md' | sed 's/^/  /'
  fail=1
fi

# no build products tracked
if git ls-files | grep -E '^_build/|\.install$' >/dev/null; then
  echo "lint: build products are tracked:"
  git ls-files | grep -E '^_build/|\.install$' | sed 's/^/  /'
  fail=1
fi

# ignore hygiene: _build and the generated bench report must stay ignored
for pat in '_build/' 'BENCH_eval.json'; do
  if ! grep -qxF "$pat" .gitignore; then
    echo "lint: .gitignore is missing '$pat'"
    fail=1
  fi
done

# parallel-safety: code reachable from pool tasks must not mutate hash
# tables that could be shared across domains.  Any raw mutation in the
# pool/kernel/evaluator sources needs a same-line 'domain-local'
# annotation saying why the table cannot be shared (DLS slot, fresh per
# call, ...).
for f in lib/core/pool.ml lib/core/bag.ml lib/core/eval.ml lib/core/vec.ml lib/core/veval.ml; do
  bad=$(grep -nE '(Hashtbl|VH)\.(add|replace|remove|reset|clear|filter_map_inplace)' "$f" | grep -v 'domain-local' || true)
  if [ -n "$bad" ]; then
    echo "lint: unannotated hash-table mutation in $f (justify with 'domain-local:'):"
    echo "$bad" | sed 's/^/  /'
    fail=1
  fi
done

# one parallelism mechanism: only the vec selection and join kernels use
# the pool.  Both engines run every compiled closure on the calling domain, so
# fuel charges, memo tables and telemetry spans never leave it and a
# pooled run spends exactly the sequential run's fuel (test_parallel.ml).
# Neither engine may submit pool work or spawn a domain itself.
bad=$(grep -nE 'Pool\.(run|create)|Domain\.spawn' lib/core/eval.ml lib/core/veval.ml || true)
if [ -n "$bad" ]; then
  echo "lint: compiled closures must stay on the calling domain; pass ?pool to a kernel instead:"
  echo "$bad" | sed 's/^/  /'
  fail=1
fi

# a sequential tree engine: the Bag kernels take no pool, because the
# tree engine is the reference every pooled run is checked against, and
# neither does Vec.product, whose chunked path measured slower in every
# paired per-process run (DESIGN §8).  The pool chunks only the vec
# selection and join kernels.
bad=$(grep -ni 'pool' lib/core/bag.ml || true)
if [ -n "$bad" ]; then
  echo "lint: lib/core/bag.ml is sequential; no pool code there:"
  echo "$bad" | sed 's/^/  /'
  fail=1
fi
bad=$(grep -rnE '(Bag\.[[:alnum:]_]+|Vec\.product)[^;]*[?~]pool' lib --include='*.ml' || true)
if [ -n "$bad" ]; then
  echo "lint: no ?pool/~pool for a Bag kernel or Vec.product:"
  echo "$bad" | sed 's/^/  /'
  fail=1
fi

# exit-discipline: only a CLI's top-level command dispatch may call exit.
# Library, test and example code must return errors (result values,
# structured verdicts, Db_error) instead — a stray exit in an error path
# is how a REPL dies and a harness loses its report.  Each CLI
# (bin/balgi.ml, bin/balgd.ml) gets exactly one exit: its Cmdliner
# dispatch line; bench/main.ml runs its own dispatch and is exempt.
bad=$(grep -rnE '(^|[^._[:alnum:]])exit[[:space:]]*([0-9]|\()' lib test examples --include='*.ml' | grep -v 'lint-exit-ok' || true)
if [ -n "$bad" ]; then
  echo "lint: exit called outside a CLI dispatch:"
  echo "$bad" | sed 's/^/  /'
  fail=1
fi
for cli in bin/balgi.ml bin/balgd.ml; do
  cli_exits=$(grep -cE '(^|[^._[:alnum:]])exit[[:space:]]*([0-9]|\()' "$cli" || true)
  if [ "$cli_exits" != "1" ]; then
    echo "lint: $cli must contain exactly one exit (the Cmd.eval' dispatch), found $cli_exits"
    fail=1
  fi
done

# observability: every trace-emission call site outside the sink itself
# must keep the disarmed fast path on the same line
# ('if Obs.on () then Obs.emit ...') so a run without --trace-out pays one
# atomic read and a branch — never argument construction or a ring write.
bad=$(grep -rn 'Obs\.emit' lib bin bench test --include='*.ml' | grep -v '^lib/core/obs\.ml:' | grep -v 'Obs\.on ()' || true)
if [ -n "$bad" ]; then
  echo "lint: Obs.emit call sites must be guarded by 'if Obs.on () then' on the same line:"
  echo "$bad" | sed 's/^/  /'
  fail=1
fi

# bounds-safety: unchecked array access is confined to the columnar
# kernels (lib/core/vec.ml), and every unsafe_get/unsafe_set there must
# justify its bounds on the same line ('bounds: ...') next to an
# enclosing assertion.  Everywhere else the checked accessors are fast
# enough and the checks have caught real bugs.
bad=$(grep -rn 'Array\.unsafe_\(get\|set\)' lib bin bench test examples --include='*.ml' | grep -v '^lib/core/vec\.ml:' || true)
if [ -n "$bad" ]; then
  echo "lint: Array.unsafe_get/unsafe_set outside lib/core/vec.ml:"
  echo "$bad" | sed 's/^/  /'
  fail=1
fi
bad=$(grep -n 'Array\.unsafe_\(get\|set\)' lib/core/vec.ml | grep -v 'bounds:' || true)
if [ -n "$bad" ]; then
  echo "lint: unsafe array access in lib/core/vec.ml without a same-line 'bounds:' justification:"
  echo "$bad" | sed 's/^/  /'
  fail=1
fi

# one grouping index: the grouping kernels of lib/core/vec.ml (dedup,
# coalesce, join, the merge family, nest) share its flat int-array hash
# index; a boxed bucket table of row lists must not come back beside it.
bad=$(grep -n 'int list) Hashtbl\.t' lib/core/vec.ml || true)
if [ -n "$bad" ]; then
  echo "lint: lib/core/vec.ml groups rows through its hash index, not an (int, int list) Hashtbl.t:"
  echo "$bad" | sed 's/^/  /'
  fail=1
fi

# one planner driver: Rewrite.drive is the only pass loop in lib/core.
# Opt supplies its cost-gated acceptance step and never walks the tree
# itself, and its cost model asks Veval.vectorizes which bodies run
# column-wise instead of keeping a shape test of its own.
bad=$(grep -nE 'map_children_env|max_passes' lib/core/opt.ml || true)
if [ -n "$bad" ]; then
  echo "lint: lib/core/opt.ml must plan through Rewrite.drive, not walk the tree itself:"
  echo "$bad" | sed 's/^/  /'
  fail=1
fi
bad=$(grep -rn 'scalar_shape' lib || true)
if [ -n "$bad" ]; then
  echo "lint: vectorizability is Veval.vectorizes; no second shape test in lib/:"
  echo "$bad" | sed 's/^/  /'
  fail=1
fi

# render once: Value.to_string and everything built on it (replies, WAL
# payloads, dumps, snapshot shipping) write into one Buffer through
# Value.add_to_buffer; a Format.asprintf renderer must not come back.
bad=$(grep -n 'asprintf' lib/core/value.ml || true)
if [ -n "$bad" ]; then
  echo "lint: lib/core/value.ml renders through Value.add_to_buffer, not asprintf:"
  echo "$bad" | sed 's/^/  /'
  fail=1
fi

# no timer floor on replication: Store.wait_change sleeps on a condition
# that every publish broadcasts, timed out by the store's own timer; a
# sleep-and-poll loop must not come back.
bad=$(grep -n 'Thread\.delay' lib/server/store.ml || true)
if [ -n "$bad" ]; then
  echo "lint: lib/server/store.ml must wake waiters on publish, not poll with Thread.delay:"
  echo "$bad" | sed 's/^/  /'
  fail=1
fi

# shared columns: balgd keeps one vector per relation value and hands it
# to every run on every worker domain, so no kernel in lib/core/vec.ml
# may write into its inputs.  Kernels write only arrays they allocate,
# under local names; an element write or fill through a field of a
# vector, a segment or a count column (x.small.(i) <- ..., Array.fill
# x.off ...) writes into an operand.  test_veval.ml checks at run time
# that every kernel leaves a shared input bit-identical.
bad=$(grep -nE '\.(small|off|elems|ecnt|cnts|data)\.\([^)]*\)[[:space:]]*<-|Array\.(fill|sort|stable_sort) [[:alnum:]_'"'"']*\.' lib/core/vec.ml || true)
if [ -n "$bad" ]; then
  echo "lint: a vec kernel writes into an input vector (kernels write only arrays they allocate):"
  echo "$bad" | sed 's/^/  /'
  fail=1
fi

# Nagle off on every accepted socket: a reply or a shipped record is one
# small write, and the delayed ACK of a busy peer would hold it back.
# Every Unix.accept in lib/server sets TCP_NODELAY within three lines.
bad=$(awk '/Unix\.accept/ { at = FILENAME ":" FNR; left = 4 }
  left > 0 { if (/TCP_NODELAY/) left = 0; else if (--left == 0) print at }' lib/server/*.ml)
if [ -n "$bad" ]; then
  echo "lint: accepted sockets must set TCP_NODELAY right after Unix.accept:"
  echo "$bad" | sed 's/^/  /'
  fail=1
fi

# rewrite coverage: every named rule in the rewriter and the optimizer
# must be exercised by a differential/witness test — a rule whose
# 'applies' never fires under test is an unsound-rewrite time bomb.  A
# rule counts as covered when its name literal appears in
# test/test_rewrite.ml or test/test_opt.ml.
uncovered=$({ grep -hoE 'name = "[^"]+"' lib/core/rewrite.ml lib/core/opt.ml \
    | sed 's/^.*name = "\(.*\)"$/\1/';
    grep -hoE 'commute "[^"]+"' lib/core/rewrite.ml \
    | sed 's/^commute "\(.*\)"$/\1/'; } \
  | sort -u \
  | while IFS= read -r r; do
      grep -qF -- "$r" test/test_rewrite.ml test/test_opt.ml || echo "$r"
    done)
if [ -n "$uncovered" ]; then
  echo "lint: rewrite/optimizer rules with no covering test (add a witness to test/test_rewrite.ml or test/test_opt.ml):"
  echo "$uncovered" | sed 's/^/  /'
  fail=1
fi

# scripts stay executable-safe: every scripts/*.sh must pass a syntax check
for s in scripts/*.sh; do
  if ! sh -n "$s"; then
    echo "lint: $s fails sh -n"
    fail=1
  fi
done

if [ "$fail" -eq 0 ]; then
  echo "lint: ok"
fi
exit "$fail"
