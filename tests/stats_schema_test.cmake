# Tier-1 schema guard for the --stats JSON contract (msn-run-stats-v1):
# generate a 16-terminal net, optimize it with --stats=stats.json, and
# validate the file's structure.  Structural checks use CMake's string(JSON)
# parser; when python3 is on PATH, tools/check_stats_schema.py runs too for
# the stricter field-by-field validation.  Invoked by CTest with
# -DCLI=<path> -DCHECKER=<path to check_stats_schema.py>.
if(NOT DEFINED CLI)
  message(FATAL_ERROR "pass -DCLI=<path to msn_cli>")
endif()

set(WORK ${CMAKE_CURRENT_BINARY_DIR}/stats_scratch)
file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

function(run_cli expect_rc out_var)
  execute_process(
    COMMAND ${CLI} ${ARGN}
    WORKING_DIRECTORY ${WORK}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL ${expect_rc})
    message(FATAL_ERROR "msn_cli ${ARGN} exited ${rc} (wanted"
                        " ${expect_rc}): ${out} ${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# The acceptance workload: a 16-terminal net through the full pipeline.
run_cli(0 out gen --terminals 16 --seed 7 -o net.msn)
run_cli(0 out optimize net.msn --stats=stats.json)
if(NOT EXISTS ${WORK}/stats.json)
  message(FATAL_ERROR "optimize --stats=stats.json wrote no file: ${out}")
endif()

file(READ ${WORK}/stats.json doc)

# Parse failure in any string(JSON ...) call is a fatal error by default,
# so a malformed file fails the test on the first GET.
string(JSON schema GET "${doc}" schema)
if(NOT schema STREQUAL "msn-run-stats-v1")
  message(FATAL_ERROR "unexpected schema: ${schema}")
endif()

# All five DP phase timers must be present with at least one call, plus
# the whole-run rollup.
foreach(phase leaf augment join repeater root total)
  string(JSON calls GET "${doc}" timers "msri.${phase}" calls)
  if(calls LESS 1)
    message(FATAL_ERROR "timer msri.${phase} recorded no calls")
  endif()
  string(JSON ms GET "${doc}" timers "msri.${phase}" total_ms)
  string(JSON us GET "${doc}" timers "msri.${phase}" mean_us)
endforeach()

# MFS prune-rate accounting.
string(JSON in GET "${doc}" counters "mfs.candidates_in")
string(JSON outn GET "${doc}" counters "mfs.candidates_out")
if(in LESS 1 OR outn GREATER ${in})
  message(FATAL_ERROR "implausible MFS counters: in=${in} out=${outn}")
endif()
string(JSON rate GET "${doc}" values "mfs.prune_rate")
if(rate LESS 0 OR rate GREATER 1)
  message(FATAL_ERROR "mfs.prune_rate out of [0,1]: ${rate}")
endif()

# PWL breakpoint totals per primitive.
foreach(prim max add_scalar add_slope shift)
  string(JSON cnt GET "${doc}" histograms "pwl.${prim}.segments" count)
endforeach()
string(JSON maxcount GET "${doc}" histograms "pwl.max.segments" count)
if(maxcount LESS 1)
  message(FATAL_ERROR "pwl.max.segments histogram is empty")
endif()

# Result summary values written by the CLI.
foreach(key net.terminals result.base_ard_ps result.picked_ard_ps)
  string(JSON v GET "${doc}" values "${key}")
endforeach()

# Strict field-level validation through the reference checker when python3
# is available (it is in CI; skipping locally keeps the test hermetic).
if(DEFINED CHECKER)
  find_program(PYTHON3 python3)
  if(PYTHON3)
    execute_process(
      COMMAND ${PYTHON3} ${CHECKER} --optimize ${WORK}/stats.json
      RESULT_VARIABLE rc
      OUTPUT_VARIABLE out
      ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "check_stats_schema.py failed: ${out} ${err}")
    endif()

    # The checker must reject region-test counts outside
    # pruned_full + pruned_partial <= region_tests <= comparisons.
    string(JSON comparisons GET "${doc}" counters "mfs.comparisons")
    math(EXPR too_many "${comparisons} + 1")
    foreach(bad 0 ${too_many})
      string(JSON bad_doc SET "${doc}" counters "mfs.region_tests" "${bad}")
      file(WRITE ${WORK}/bad_stats.json "${bad_doc}")
      execute_process(
        COMMAND ${PYTHON3} ${CHECKER} --optimize ${WORK}/bad_stats.json
        RESULT_VARIABLE rc
        OUTPUT_QUIET ERROR_QUIET)
      if(rc EQUAL 0)
        message(FATAL_ERROR "check_stats_schema.py accepted"
                            " mfs.region_tests = ${bad}")
      endif()
    endforeach()

    # The checker must tie the mfs.time timer to the mfs.calls counter:
    # one call off is rejected.
    string(JSON mfs_calls GET "${doc}" counters "mfs.calls")
    math(EXPR off_by_one "${mfs_calls} + 1")
    string(JSON bad_doc SET "${doc}" timers "mfs.time" calls "${off_by_one}")
    file(WRITE ${WORK}/bad_stats.json "${bad_doc}")
    execute_process(
      COMMAND ${PYTHON3} ${CHECKER} --optimize ${WORK}/bad_stats.json
      RESULT_VARIABLE rc
      OUTPUT_QUIET ERROR_QUIET)
    if(rc EQUAL 0)
      message(FATAL_ERROR "check_stats_schema.py accepted mfs.time calls"
                          " ${off_by_one} against mfs.calls ${mfs_calls}")
    endif()

    # Sizing mode inserts no repeaters, so its msri.repeater timer never
    # fires: the document is still valid.
    run_cli(0 out optimize net.msn --mode sizing --stats=sizing_stats.json)
    execute_process(
      COMMAND ${PYTHON3} ${CHECKER} --optimize ${WORK}/sizing_stats.json
      RESULT_VARIABLE rc
      OUTPUT_VARIABLE out
      ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "check_stats_schema.py rejected a sizing run:"
                          " ${out} ${err}")
    endif()

    # A repeater-mode run whose msri.repeater phase never fired is not.
    string(JSON bad_doc SET "${doc}" timers "msri.repeater" calls 0)
    file(WRITE ${WORK}/bad_stats.json "${bad_doc}")
    execute_process(
      COMMAND ${PYTHON3} ${CHECKER} --optimize ${WORK}/bad_stats.json
      RESULT_VARIABLE rc
      OUTPUT_QUIET ERROR_QUIET)
    if(rc EQUAL 0)
      message(FATAL_ERROR "check_stats_schema.py accepted a repeaters run"
                          " with msri.repeater calls 0")
    endif()
  endif()
endif()

message(STATUS "stats schema test passed")
