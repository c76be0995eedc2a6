# Build file of the benchmark. Pass it to the repository's configure step:
#
#   cmake -S . -B .bench_build/cmake -DCMAKE_PROJECT_INCLUDE=$PWD/perfbench/perfbench.cmake
#   cmake --build .bench_build/cmake --target perfbench_workload perfbench_selftest
#
# CMake includes this file right after the repository's project() call and
# runs the deferred call below once the root CMakeLists is done, so the
# benchmark's targets build inside the repository's own default
# configuration: same build type, compile options and library targets as the
# tier-1 build. A change to those defaults therefore shows in the numbers.
set(PERFBENCH_DIR ${CMAKE_CURRENT_LIST_DIR})

function(perfbench_add_targets)
  get_directory_property(options DIRECTORY ${CMAKE_SOURCE_DIR} COMPILE_OPTIONS)
  string(TOUPPER "${CMAKE_BUILD_TYPE}" type)
  string(JOIN " " flags ${CMAKE_CXX_FLAGS} ${CMAKE_CXX_FLAGS_${type}} ${options})

  add_executable(perfbench_workload
    ${PERFBENCH_DIR}/main.cpp
    ${PERFBENCH_DIR}/chip.cpp
    ${PERFBENCH_DIR}/serve.cpp)
  target_link_libraries(perfbench_workload PRIVATE lithogan_chip lithogan_serve)
  target_compile_definitions(perfbench_workload PRIVATE
    PERFBENCH_CXX_FLAGS="${flags}"
    PERFBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}")

  add_executable(perfbench_selftest ${PERFBENCH_DIR}/selftest.cpp)
endfunction()

cmake_language(DEFER DIRECTORY ${CMAKE_SOURCE_DIR} CALL perfbench_add_targets)
