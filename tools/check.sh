#!/usr/bin/env bash
# One-command static/dynamic analysis matrix for TeNDaX.
#
#   tools/check.sh            # run everything available on this machine
#   tools/check.sh --fast     # skip the sanitizer ctest runs
#
# Stages (each skipped gracefully when its toolchain is missing):
#   1. thread-safety   clang -Wthread-safety -Werror build
#                      (TENDAX_THREAD_SAFETY=ON; proves lock annotations)
#   2. lock-order      gcc/clang build with TENDAX_LOCK_ORDER=ON, then the
#                      full ctest suite under the runtime validator
#                      (includes the `checkpoint` label: checkpointer vs
#                      editor lock ranks)
#   3. checkpoint      ctest -L checkpoint on a default build — fuzzy
#                      checkpoint pipeline, WAL truncation, crash sweep,
#                      the clean close that empties the log (and its
#                      crash sweep), LSNs across a reopen of an empty log,
#                      and the restart itself: the projected char-id scan,
#                      chains and search postings built on first use
#   4. overload        ctest -L overload on a default build — admission
#                      control, deadline propagation, the editor storm
#   5. mvcc            ctest -L mvcc on a default build — lock-free
#                      snapshot reads, purge-floor semantics, the seeded
#                      snapshot-consistency harness, the chain tree
#                      against its flat model, the search index's
#                      tree diff against a full re-index — plus the
#                      reader storm repeated 40 times, so a rare
#                      publication race fails the stage instead of
#                      slipping through one run
#   6. clang-tidy      bug/concurrency/performance checks over src/
#   7. sanitizers      ctest under -fsanitize=address and =undefined
#                      (the checkpoint + overload + mvcc suites run under
#                      both as well)
#   8. tsan mvcc       ctest -L mvcc under -fsanitize=thread — snapshot
#                      publication / COW / reclamation raced against the
#                      writer storm, checkpointer, purge, eviction and the
#                      search index pinning trees it diffs (the storm
#                      again repeated 40 times)
#   9. tsan groupcommit ctest -L groupcommit under -fsanitize=thread — the
#                      commit path's concurrency rests on the WAL's single
#                      flush slot alone — plus the gated batching test
#                      repeated 20 times
#
# Exit code is non-zero iff any stage that *ran* failed.
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_ROOT="${TENDAX_CHECK_BUILD_DIR:-$ROOT/build-check}"
JOBS="${TENDAX_CHECK_JOBS:-$(nproc 2>/dev/null || echo 4)}"
FAST=0
[ "${1:-}" = "--fast" ] && FAST=1

failures=()
ran=()
skipped=()

note()  { printf '\n== %s ==\n' "$*"; }
have()  { command -v "$1" >/dev/null 2>&1; }

run_stage() { # name, function
  local name="$1" fn="$2"
  note "$name"
  if "$fn"; then
    ran+=("$name")
  else
    failures+=("$name")
  fi
}

skip_stage() { # name, reason
  note "$1 — SKIPPED ($2)"
  skipped+=("$1")
}

stage_thread_safety() {
  local dir="$BUILD_ROOT/thread-safety"
  cmake -S "$ROOT" -B "$dir" \
        -DCMAKE_C_COMPILER=clang -DCMAKE_CXX_COMPILER=clang++ \
        -DTENDAX_THREAD_SAFETY=ON >/dev/null &&
  cmake --build "$dir" -j "$JOBS"
}

stage_lock_order() {
  local dir="$BUILD_ROOT/lock-order"
  cmake -S "$ROOT" -B "$dir" -DTENDAX_LOCK_ORDER=ON >/dev/null &&
  cmake --build "$dir" -j "$JOBS" &&
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

stage_checkpoint() {
  local dir="$BUILD_ROOT/checkpoint"
  cmake -S "$ROOT" -B "$dir" >/dev/null &&
  cmake --build "$dir" -j "$JOBS" &&
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS" -L checkpoint
}

stage_overload() {
  local dir="$BUILD_ROOT/checkpoint"  # reuse the default-config build
  cmake -S "$ROOT" -B "$dir" >/dev/null &&
  cmake --build "$dir" -j "$JOBS" &&
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS" -L overload
}

repeat_mvcc_storm() { # build dir
  "$1/tests/collab_stress_test" \
      --gtest_filter='*SnapshotReadersUnderWriterStormPurgeAndEviction*' \
      --gtest_repeat=40 --gtest_brief=1
}

stage_mvcc() {
  local dir="$BUILD_ROOT/checkpoint"  # reuse the default-config build
  cmake -S "$ROOT" -B "$dir" >/dev/null &&
  cmake --build "$dir" -j "$JOBS" &&
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS" -L mvcc &&
  repeat_mvcc_storm "$dir"
}

stage_tsan_mvcc() {
  local dir="$BUILD_ROOT/san-thread"
  cmake -S "$ROOT" -B "$dir" -DTENDAX_SANITIZE=thread >/dev/null &&
  cmake --build "$dir" -j "$JOBS" &&
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS" -L mvcc &&
  repeat_mvcc_storm "$dir"
}

repeat_batching() { # build dir
  "$1/tests/group_commit_test" \
      --gtest_filter='*BatchesConcurrentCommitsIntoOneSync*' \
      --gtest_repeat=20 --gtest_brief=1
}

stage_tsan_groupcommit() {
  local dir="$BUILD_ROOT/san-thread"  # shared with the tsan mvcc stage
  cmake -S "$ROOT" -B "$dir" -DTENDAX_SANITIZE=thread >/dev/null &&
  cmake --build "$dir" -j "$JOBS" &&
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS" -L groupcommit &&
  repeat_batching "$dir"
}

# True when the C++ compiler can build and run a -fsanitize=thread binary.
have_tsan() {
  local probe ok
  probe="$(mktemp -d)" || return 1
  printf 'int main() { return 0; }\n' > "$probe/t.cc"
  "${CXX:-c++}" -fsanitize=thread "$probe/t.cc" -o "$probe/t" \
      >/dev/null 2>&1 && "$probe/t"
  ok=$?
  rm -rf "$probe"
  return "$ok"
}

stage_clang_tidy() {
  local dir="$BUILD_ROOT/tidy"
  cmake -S "$ROOT" -B "$dir" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null ||
    return 1
  # shellcheck disable=SC2046
  clang-tidy -p "$dir" --quiet $(find "$ROOT/src" -name '*.cc' | sort)
}

stage_sanitizer() { # sanitize value
  local kind="$1" dir="$BUILD_ROOT/san-$1"
  cmake -S "$ROOT" -B "$dir" -DTENDAX_SANITIZE="$kind" >/dev/null &&
  cmake --build "$dir" -j "$JOBS" &&
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}
stage_asan() { stage_sanitizer address; }
stage_ubsan() { stage_sanitizer undefined; }

if have clang++; then
  run_stage "thread-safety (clang -Wthread-safety -Werror)" stage_thread_safety
else
  skip_stage "thread-safety" "clang++ not installed; annotations compile as no-ops elsewhere"
fi

run_stage "lock-order (TENDAX_LOCK_ORDER=ON ctest)" stage_lock_order

run_stage "checkpoint (ctest -L checkpoint)" stage_checkpoint

run_stage "overload (ctest -L overload)" stage_overload

run_stage "mvcc (ctest -L mvcc)" stage_mvcc

if have clang-tidy; then
  run_stage "clang-tidy" stage_clang_tidy
else
  skip_stage "clang-tidy" "clang-tidy not installed"
fi

if [ "$FAST" = 1 ]; then
  skip_stage "sanitizers" "--fast"
else
  run_stage "asan ctest" stage_asan
  run_stage "ubsan ctest" stage_ubsan
  run_stage "tsan mvcc (ctest -L mvcc)" stage_tsan_mvcc
  if have_tsan; then
    run_stage "tsan groupcommit (ctest -L groupcommit)" stage_tsan_groupcommit
  else
    skip_stage "tsan groupcommit" "compiler cannot build -fsanitize=thread"
  fi
fi

note "summary"
printf 'ran:     %s\n' "${ran[*]:-none}"
printf 'skipped: %s\n' "${skipped[*]:-none}"
if [ "${#failures[@]}" -gt 0 ]; then
  printf 'FAILED:  %s\n' "${failures[*]}"
  exit 1
fi
echo "all stages that ran passed"
