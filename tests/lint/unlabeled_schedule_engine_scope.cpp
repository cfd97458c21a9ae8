// ecgrid-lint-fixture-path: src/sim/example_engine.cpp
// ecgrid-lint-fixture: expect-clean
//
// The event engine itself is out of scope: its own tests and forwarding
// layers schedule on behalf of callers that carry the label.

struct Simulator {
  template <class F>
  void schedule(double delay, F&& action, const char* label = nullptr) {}
};

struct Engine {
  template <class F>
  void forward(double delay, F&& action) {
    sim_.schedule(delay, action);
  }
  Simulator sim_;
};
