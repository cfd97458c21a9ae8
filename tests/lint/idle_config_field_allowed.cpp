// ecgrid-lint-fixture-path: src/example/example_config.hpp
// ecgrid-lint-fixture: expect-clean
//
// Setters are matched by field name across the repository sweep:
// helloPeriod is assigned by tests and bench/ablation_hello_period, so
// it is a knob that something exercises. A justified allow() suppresses
// the rule, and members that are not data fields never fire.
struct ExampleConfig {
  double helloPeriod = 1.0;
  // ecgrid-lint: allow(idle-config-field)
  double reservedKnob = 0.0;
  static constexpr int kLimit = 4;
  using Seconds = double;
  struct Nested {
    int notAKnob = 0;
  };
  double twice() const { return 2.0 * helloPeriod; }
  ExampleConfig() { reservedKnob = 1.0; }
};

// Only structs named *Config are option sets.
struct ExamplePolicy {
  int neverSet = 0;
};
