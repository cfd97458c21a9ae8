// ecgrid-lint-fixture-path: src/protocols/example/example_protocol.cpp
// ecgrid-lint-fixture: expect-violation(unlabeled-schedule)
//
// Protocol timers scheduled without a schedule-site label: the profiler
// can only count them as "unlabeled". Each call below misses its label
// in a different way.

struct Simulator {
  template <class F>
  void schedule(double delay, F&& action, const char* label = nullptr) {}
  template <class F>
  void scheduleAt(double when, F&& action, const char* label = nullptr) {}
};

struct ExampleProtocol {
  void armTimers() {
    sim_.schedule(1.0, [this] { tick(); });
    sim_.scheduleAt(2.0,
                    [this] {
                      tick();
                    });
    sim_.schedule(1.0, [this] { tick(); }, nullptr);
  }
  void tick() {}
  Simulator sim_;
};
