// ecgrid-lint-fixture-path: src/protocols/example/example_protocol.cpp
// ecgrid-lint-fixture: expect-clean
//
// Every schedule-site shape carries its label as the last argument: a
// string literal or a named constant, on one line or split across many.

using uint64 = unsigned long long;
using RunId = unsigned;

struct EventKey {
  uint64 tieKey = 0;
  uint64 sequence = 0;
};

struct Simulator {
  template <class F>
  void schedule(double delay, F&& action, const char* label = nullptr) {}
  template <class F>
  void scheduleAt(double when, F&& action, const char* label = nullptr) {}
  template <class F>
  void scheduleInRun(RunId run, double delay, F&& action,
                     const char* label = nullptr) {}
  template <class F>
  void scheduleInRun(RunId run, double delay, EventKey key, F&& action,
                     const char* label = nullptr) {}
};

constexpr const char* kTickLabel = "example/tick";

struct ExampleProtocol {
  void armTimers() {
    sim_.schedule(1.0, [this] { tick(); }, "example/tick");
    sim_.scheduleAt(
        2.0,
        [this] {
          tick();
        },
        "example/deadline");
    sim_.scheduleInRun(3, 0.1, [this] { tick(); }, kTickLabel);
    sim_.scheduleInRun(3, 0.1, EventKey{}, [this] { tick(); },
                       "example/batch");
  }
  void tick() {}
  Simulator sim_;
};
