// Checks of the benchmark's own logic (run with --self-test).
#pragma once

#include <string>

namespace perfbench {

// A metric name: 1-64 of [A-Za-z0-9_.-], starting with a letter or digit.
bool valid_metric_name(const std::string& name);
// A unit: 1-16 of [A-Za-z0-9_/%.-].
bool valid_unit(const std::string& unit);

// Returns 0 when every check passes, 1 otherwise (failures on stderr).
int run_self_test();

}  // namespace perfbench
