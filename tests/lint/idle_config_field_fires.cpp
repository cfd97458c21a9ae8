// ecgrid-lint-fixture-path: src/example/example_config.hpp
// ecgrid-lint-fixture: expect-violation(idle-config-field)
//
// A Config field that nothing outside its declaring directory assigns
// must fire. The assignment below does not count: it is inside
// src/example/ itself.
struct ExampleConfig {
  double idleKnobSeconds = 0.25;
};

inline void tuneExample(ExampleConfig& config) {
  config.idleKnobSeconds = 0.5;
}
