# End-to-end smoke of the mm_repair_cli tool over a copy of a checked-in
# v1 fixture: compress to gcm:re_ans, decompress to a dense snapshot,
# `info` on it, and `info --resave` on the v1 copy. Each result is
# compared byte for byte with the fixture decompressed straight to a dense
# snapshot, which proves the matrix loaded bitwise unchanged.
#
#   cmake -DCLI=<mm_repair_cli> -DFIXTURE=<v1 .gcsnap> -DWORK=<scratch dir>
#         -P mm_repair_cli_smoke.cmake
#
# The fixture itself is only ever read; every write goes under WORK.

foreach(var CLI FIXTURE WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "mm_repair_cli_smoke: -D${var}=... is required")
  endif()
endforeach()

function(run_cli out_var)
  string(JOIN " " command ${ARGN})
  execute_process(COMMAND ${CLI} ${ARGN}
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "mm_repair_cli ${command} exited ${code}:\n${out}${err}")
  endif()
  message(STATUS "mm_repair_cli ${command}: ${out}")
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

function(expect_same_file actual expected)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
    ${actual} ${expected} RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR "${actual} differs from ${expected}")
  endif()
endfunction()

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})
get_filename_component(fixture_name ${FIXTURE} NAME)
file(COPY ${FIXTURE} DESTINATION ${WORK})
set(v1_copy ${WORK}/${fixture_name})

run_cli(out decompress ${FIXTURE} ${WORK}/expected.gcsnap)

run_cli(out compress ${v1_copy} ${WORK}/re_ans.gcsnap --spec gcm:re_ans)
run_cli(out decompress ${WORK}/re_ans.gcsnap ${WORK}/restored.gcsnap)
run_cli(out info ${WORK}/restored.gcsnap)
if(NOT out MATCHES ": snapshot file, [0-9]+x[0-9]+, backend dense,")
  message(FATAL_ERROR "info did not report a dense snapshot: ${out}")
endif()
expect_same_file(${WORK}/restored.gcsnap ${WORK}/expected.gcsnap)

run_cli(out info ${v1_copy} --resave)
run_cli(out decompress ${v1_copy} ${WORK}/resaved.gcsnap)
expect_same_file(${WORK}/resaved.gcsnap ${WORK}/expected.gcsnap)
