# Golden-output gate: `msn_cli optimize` stdout must stay byte-identical
# on fixed seeded nets in every optimization mode.  Each entry below is
# "<terminals> <seed> <mode> <SHA256 of stdout>"; the test generates the
# net with `msn_cli gen`, optimizes it and compares digests.  A change that
# is meant to alter results (a different frontier, a different tie-break,
# a new report line) must say so and re-record these digests; a pure
# performance change must leave them alone.  The digests assume IEEE-754
# doubles without fused multiply-add contraction (the x86-64 default).
# Invoked by CTest with -DCLI=<path to msn_cli>.
if(NOT DEFINED CLI)
  message(FATAL_ERROR "pass -DCLI=<path to msn_cli>")
endif()

set(WORK ${CMAKE_CURRENT_BINARY_DIR}/golden_scratch)
file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

set(GOLDEN
  "8 1 repeaters df3872accce3bfe7aeb59526143818890fc056c88bda603ee0c64cec3f4ce5dd"
  "8 1 sizing c29382c9892dfab2224db82554794aa2e81f945cfd37c76ab032e89e7da2cea5"
  "8 1 joint c7305f0438aa856eea74eaae82ff1569f87a5746ace3400751f8f874e532a254"
  "8 3 repeaters 310ee48a0fab3ac8c27437c8c26eb4898b81775f12e7fd62ba52e0f886da973c"
  "8 3 sizing 3f29cd6070d4c4e617401016e7d79b995248d6234668e7c7c8bf42698e14866e"
  "8 3 joint 695c7184d2ede577eb075da63a01950ed779243a8a62b15ed6b5bc219114cdf6"
  "10 2 repeaters a2b5d26e776692e1144ce3cb4e3672b491ea5597fe1d7d6c901cb1b05afff773"
  "10 2 sizing 3a96227bf022383646008081a49012d134d40fee5dd6a037fd2d1a1c7922924f"
  "10 2 joint 628213a6ebf174dec5812ba05f64b7854fefe64af24ab0ab5a5edc9e344974b2"
  "12 1 repeaters 7f1ac2828802c5f28dc083f2ffc2c659cc8836ce70377539123a529dfb7ccdb8"
  "12 1 sizing 178aff447bb57f94b30d7550057312b8b7ceb8407e91b37e89b6cd2c38471b47"
  "12 1 joint 23cbe69339554032a31deabb5474bf64036f28a4c0a12c3afb5c86041d0d549f"
  # A 20-pin net whose repeater-mode joins grow past JoinSets' 4096-entry
  # threshold, so the chunked join prune runs (twice) and hands its
  # survivors on as an already-minimal prefix.
  "20 3 repeaters 51e752fa5d27662e1d0e4e46529bf5f8bc502908fce6faa80b2a342cf9b1de02"
  "20 3 sizing 43d3500a7a338ba64788e9d7b72bfc15b9f49072dfe62e8c5726e9960be7f4f0"
)

function(run_cli out_var)
  execute_process(
    COMMAND ${CLI} ${ARGN}
    WORKING_DIRECTORY ${WORK}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "msn_cli ${ARGN} exited ${rc}: ${out} ${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

set(failures 0)
foreach(entry IN LISTS GOLDEN)
  string(REPLACE " " ";" fields "${entry}")
  list(GET fields 0 terminals)
  list(GET fields 1 seed)
  list(GET fields 2 mode)
  list(GET fields 3 want)
  set(net net_${terminals}_${seed}.msn)
  if(NOT EXISTS ${WORK}/${net})
    run_cli(ignored gen --terminals ${terminals} --seed ${seed} -o ${net})
  endif()
  run_cli(out optimize ${net} --mode ${mode})
  string(SHA256 got "${out}")
  if(NOT got STREQUAL want)
    message(SEND_ERROR "optimize --mode ${mode} on the ${terminals}-terminal"
                       " seed-${seed} net: stdout digest ${got}, recorded"
                       " ${want}.  Output:\n${out}")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()
if(failures GREATER 0)
  message(FATAL_ERROR "${failures} golden output(s) changed")
endif()
