// ecgrid-lint-fixture-path: src/protocols/common/neighbor_peek_ok.cpp
// ecgrid-lint-fixture: expect-clean
// The same remote-host reaches as cross_host_access_fires.cpp, each with
// a justified suppression — the shape a reviewed exception takes (e.g. a
// debug-only audit helper that inspects remote state read-only and never
// ships in a release build).
namespace ecgrid::protocols {

struct NeighborPeekAudit {
  void peek() {
    // Read-only diagnostic, compiled out of release builds.
    // ecgrid-lint: allow(cross-host-access)
    auto* remote = network_.findNode(7);
    (void)remote;
    auto* env = remoteEnv();  // ecgrid-lint: allow(cross-host-access)
    (void)env;
  }

  // ecgrid-lint: allow(cross-host-access)
  net::HostEnv* remoteEnv();
};

}  // namespace ecgrid::protocols
