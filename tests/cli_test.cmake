# End-to-end test of the msn_cli binary: gen -> optimize -> ard -> render
# round-trip in a scratch directory.  Invoked by CTest with -DCLI=<path>.
if(NOT DEFINED CLI)
  message(FATAL_ERROR "pass -DCLI=<path to msn_cli>")
endif()

set(WORK ${CMAKE_CURRENT_BINARY_DIR}/cli_scratch)
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
  # Diagnostics go to stderr; concatenate so callers can match either.
  set(${out_var} "${out}${err}" PARENT_SCOPE)
endfunction()

# Generate a net.
run_cli(0 out gen --terminals 6 --seed 5 -o net.msn)
if(NOT out MATCHES "6 terminals")
  message(FATAL_ERROR "gen output missing terminal count: ${out}")
endif()
if(NOT EXISTS ${WORK}/net.msn)
  message(FATAL_ERROR "gen did not write net.msn")
endif()

# Base diameter report.
run_cli(0 out ard net.msn)
if(NOT out MATCHES "ARD: ")
  message(FATAL_ERROR "ard output malformed: ${out}")
endif()

# Optimize with an achievable spec and persist the solution.
run_cli(0 out optimize net.msn --spec 950 -o sol.msn)
if(NOT out MATCHES "repeaters placed")
  message(FATAL_ERROR "optimize output missing solution: ${out}")
endif()
if(NOT EXISTS ${WORK}/sol.msn)
  message(FATAL_ERROR "optimize did not write sol.msn")
endif()

# Re-evaluating the saved solution must beat the spec.
run_cli(0 out ard net.msn sol.msn)
string(REGEX MATCH "ARD: ([0-9.]+)" _ "${out}")
if(NOT CMAKE_MATCH_1)
  message(FATAL_ERROR "could not parse ARD from: ${out}")
endif()
if(CMAKE_MATCH_1 GREATER 950)
  message(FATAL_ERROR "saved solution misses the spec: ${CMAKE_MATCH_1}")
endif()

# Render with repeater markers.
run_cli(0 out render net.msn sol.msn)
if(NOT out MATCHES "#")
  message(FATAL_ERROR "render shows no repeater markers: ${out}")
endif()

# An unachievable spec reports failure with exit code 1.
run_cli(1 out optimize net.msn --spec 1)

# Unknown subcommands and missing files fail cleanly.
run_cli(2 out bogus)
run_cli(1 out ard missing.msn)

# Malformed net files fail with exit code 1 and a one-line error naming
# the offending line, never an unhandled exception or CHECK abort.
file(WRITE ${WORK}/bad.msn "msn-net 1\nnode 0 terminal\nend\n")
run_cli(1 out optimize bad.msn)
if(NOT out MATCHES "error: .*line 2")
  message(FATAL_ERROR "malformed-net error lacks a line number: ${out}")
endif()

file(WRITE ${WORK}/noheader.msn "hello\n")
run_cli(1 out ard noheader.msn)
if(NOT out MATCHES "error: ")
  message(FATAL_ERROR "missing-header failure not reported: ${out}")
endif()

# Non-numeric flag values are a usage error, not an uncaught std::stod.
run_cli(1 out optimize net.msn --spec abc)
if(NOT out MATCHES "expects a number")
  message(FATAL_ERROR "bad --spec value not diagnosed: ${out}")
endif()

# Unknown flags print the usage text to stderr and exit 2 — they must
# never be silently ignored (a typo'd --mode would otherwise run the
# wrong optimization and exit 0).
run_cli(2 out optimize net.msn --bogus-flag 1)
if(NOT out MATCHES "unknown flag '--bogus-flag'" OR NOT out MATCHES "usage:")
  message(FATAL_ERROR "unknown flag not rejected with usage: ${out}")
endif()
# A removed flag is an unknown flag like any other: every net's DP runs
# serially, so optimize-batch has no per-net parallel mode to select.
run_cli(2 out optimize-batch . --intra-net)
if(NOT out MATCHES "unknown flag '--intra-net'" OR NOT out MATCHES "usage:")
  message(FATAL_ERROR "removed optimize-batch flag not rejected: ${out}")
endif()
run_cli(2 out gen --terminals 4 --stats -o x.msn)  # valid elsewhere only
run_cli(2 out serve --port)                        # flag missing a value
if(NOT out MATCHES "needs a value")
  message(FATAL_ERROR "valueless --port not diagnosed: ${out}")
endif()
run_cli(2 out serve extra-positional)

# --- gen-design / close-timing (docs/STA.md) -------------------------

# Generate a small design; the .msd and every referenced .msn appear.
run_cli(0 out gen-design --nets 4 --seed 11 -o d1)
if(NOT out MATCHES "4 nets")
  message(FATAL_ERROR "gen-design output missing net count: ${out}")
endif()
if(NOT EXISTS ${WORK}/d1/design.msd OR NOT EXISTS ${WORK}/d1/net_0003.msn)
  message(FATAL_ERROR "gen-design did not write the design files")
endif()

# Same seed, byte-identical files; different seed, different bytes.
run_cli(0 out gen-design --nets 4 --seed 11 -o d2)
file(SHA256 ${WORK}/d1/design.msd h1)
file(SHA256 ${WORK}/d2/design.msd h2)
if(NOT h1 STREQUAL h2)
  message(FATAL_ERROR "gen-design is not deterministic in the seed")
endif()
file(SHA256 ${WORK}/d1/net_0002.msn n1)
file(SHA256 ${WORK}/d2/net_0002.msn n2)
if(NOT n1 STREQUAL n2)
  message(FATAL_ERROR "gen-design nets are not deterministic in the seed")
endif()
run_cli(0 out gen-design --nets 4 --seed 12 -o d3)
file(SHA256 ${WORK}/d3/design.msd h3)
if(h1 STREQUAL h3)
  message(FATAL_ERROR "gen-design ignores the seed")
endif()

# Close timing on the generated design; the report ends in a verdict.
run_cli(0 out close-timing d1/design.msd --jobs 2 --max-iters 8)
if(NOT out MATCHES "converged: " OR NOT out MATCHES "final worst slack")
  message(FATAL_ERROR "close-timing report malformed: ${out}")
endif()

# Exit-code hygiene for the new subcommands: unknown flags are usage
# errors (stderr usage text + exit 2), runtime failures are exit 1.
run_cli(2 out close-timing d1/design.msd --bogus-flag 1)
if(NOT out MATCHES "unknown flag '--bogus-flag'" OR NOT out MATCHES "usage:")
  message(FATAL_ERROR "close-timing unknown flag not rejected: ${out}")
endif()
run_cli(2 out gen-design --nets 2 --port 7 -o dx)  # valid elsewhere only
run_cli(2 out gen-design --nets 2 -o dx extra-positional)
run_cli(1 out close-timing missing.msd)
run_cli(1 out close-timing d1/design.msd --jobs 0)
run_cli(1 out close-timing d1/design.msd --jobs abc)
if(NOT out MATCHES "expects a number")
  message(FATAL_ERROR "bad --jobs value not diagnosed: ${out}")
endif()

# Malformed .msd files fail with exit 1 and a line-numbered one-liner.
file(WRITE ${WORK}/bad.msd
     "msn-design 1\nnet n0 net.msn u0.a u0.b\nend\n")
run_cli(1 out close-timing bad.msd)
if(NOT out MATCHES "error: .*line 2")
  message(FATAL_ERROR "malformed-design error lacks a line number: ${out}")
endif()

# The serve loop answers on stdin/stdout and exits 0 on shutdown.
file(WRITE ${WORK}/serve_input.txt
     "{\"op\":\"stats\",\"id\":\"s\"}\n{\"op\":\"shutdown\"}\n")
execute_process(
  COMMAND ${CLI} serve
  INPUT_FILE ${WORK}/serve_input.txt
  WORKING_DIRECTORY ${WORK}
  RESULT_VARIABLE serve_rc
  OUTPUT_VARIABLE serve_out
  ERROR_VARIABLE serve_err)
if(NOT serve_rc EQUAL 0)
  message(FATAL_ERROR "serve exited ${serve_rc}: ${serve_out} ${serve_err}")
endif()
if(NOT serve_out MATCHES "msn-service-stats-v2")
  message(FATAL_ERROR "serve stats response malformed: ${serve_out}")
endif()

message(STATUS "msn_cli end-to-end test passed")
