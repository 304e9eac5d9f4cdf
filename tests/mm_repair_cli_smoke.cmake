# End-to-end smoke of the mm_repair_cli tool over copies of checked-in v1
# fixtures: compress to gcm:re_ans, decompress to a dense snapshot, `info`
# on it, and `info --resave` on the v1 file copy and on the v1 store copy.
# Each result is compared byte for byte with the fixture decompressed
# straight to a dense snapshot, which proves the matrix loaded bitwise
# unchanged (the store holds the same matrix as the file). The resaved
# store must hold exactly its manifest plus one generation-1 file per
# shard.
#
#   cmake -DCLI=<mm_repair_cli> -DFIXTURE=<v1 .gcsnap>
#         -DSTORE=<v1 store dir> -DWORK=<scratch dir>
#         -P mm_repair_cli_smoke.cmake
#
# The fixtures themselves are only ever read; every write goes under WORK.

foreach(var CLI FIXTURE STORE WORK)
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

file(COPY ${STORE}/ DESTINATION ${WORK}/store)
run_cli(out info ${WORK}/store --resave)
file(GLOB store_files RELATIVE ${WORK}/store ${WORK}/store/*)
list(SORT store_files)
set(expected_files manifest.gcsnap shard_g1_00000.gcsnap
    shard_g1_00001.gcsnap shard_g1_00002.gcsnap)
if(NOT store_files STREQUAL expected_files)
  message(FATAL_ERROR "resaved store holds [${store_files}], expected "
                      "[${expected_files}]")
endif()
run_cli(out decompress ${WORK}/store/manifest.gcsnap
        ${WORK}/store_resaved.gcsnap)
expect_same_file(${WORK}/store_resaved.gcsnap ${WORK}/expected.gcsnap)
