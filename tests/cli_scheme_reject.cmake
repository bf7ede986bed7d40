# An unknown --scheme must fail fast: non-zero exit, nothing on stdout,
# and a one-line error naming the schemes the subcommand accepts.
# Usage: cmake -DBIN=<decor> -P cli_scheme_reject.cmake
foreach(case "deploy|centralized, random, grid or voronoi"
             "sim|grid or voronoi")
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts 0 cmd)
  list(GET parts 1 accepted)
  execute_process(
    COMMAND ${BIN} ${cmd} --scheme=vornoi --side=20 --points=100
            --initial=5 --seed=2
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "${cmd} --scheme=vornoi exited 0:\n${out}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "${cmd} --scheme=vornoi ran anyway:\n${out}")
  endif()
  string(FIND "${err}" "\n" first_newline)
  string(LENGTH "${err}" err_len)
  math(EXPR last "${err_len} - 1")
  if(NOT first_newline EQUAL last)
    message(FATAL_ERROR "${cmd}: expected a one-line error, got:\n${err}")
  endif()
  string(FIND "${err}" "unknown --scheme=vornoi" named)
  string(FIND "${err}" "(expected ${accepted})" listed)
  if(named EQUAL -1 OR listed EQUAL -1)
    message(FATAL_ERROR "${cmd}: error does not name the scheme and the "
                        "accepted names (${accepted}):\n${err}")
  endif()
endforeach()
