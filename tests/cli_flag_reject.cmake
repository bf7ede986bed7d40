# An unknown flag, or an unknown value of an enumerated flag, must fail
# fast: non-zero exit, nothing on stdout, and one stderr line naming the
# flag (and, for a value, the values the flag accepts).
# Usage: cmake -DBIN=<decor> -P cli_flag_reject.cmake
set(field --side=30 --points=200 --initial=10 --k=1)
function(expect_reject expected)
  execute_process(
    COMMAND ${BIN} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "'${ARGN}' exited 0:\n${out}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "'${ARGN}' ran anyway:\n${out}")
  endif()
  string(FIND "${err}" "\n" first_newline)
  string(LENGTH "${err}" err_len)
  math(EXPR last "${err_len} - 1")
  if(NOT first_newline EQUAL last)
    message(FATAL_ERROR "'${ARGN}': expected a one-line error, got:\n${err}")
  endif()
  string(FIND "${err}" "${expected}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "'${ARGN}': error does not say '${expected}':\n${err}")
  endif()
endfunction()

expect_reject("unknown flag --sedd for deploy"
              deploy --scheme=centralized ${field} --sedd=3)
expect_reject("unknown flag --shards for deploy"
              deploy --scheme=centralized ${field} --shards=4)
expect_reject("unknown --failure=bogus for restore (expected area or random)"
              restore --scheme=grid ${field} --failure=bogus)
expect_reject(
  "unknown --point-kind=bogus for restore (expected halton, hammersley, random or jittered)"
  restore --scheme=grid ${field} --point-kind=bogus)
# A flag another subcommand reads is still unknown here.
expect_reject("unknown flag --loss for deploy"
              deploy --scheme=grid ${field} --loss=0.1)
expect_reject("unknown --trace=bogus for sim (expected true, false, 1, 0, yes or no)"
              sim --scheme=grid ${field} --trace=bogus)
expect_reject("unknown flag --colz for watch" watch --colz=40 .)

# The accepted forms still run.
execute_process(
  COMMAND ${BIN} restore --scheme=grid ${field} --failure=random
          --point-kind=hammersley --seed=3
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "a valid restore exited ${rc}")
endif()
execute_process(COMMAND ${BIN} deploy --help RESULT_VARIABLE rc
                OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "usage: decor")
  message(FATAL_ERROR "deploy --help did not print the usage (rc=${rc})")
endif()
