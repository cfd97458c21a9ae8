// Ownership-domain tags — which part of the system owns an object.
//
// Thread-safety annotations (util/thread_annotations.hpp) say which lock
// guards a field; these macros say which *execution domain* owns a whole
// class. Three domains cover the repo (DESIGN.md §13):
//
//   ECGRID_DOMAIN_PER_HOST      Owned by exactly one mobile host: the
//                               protocol stack, MAC, radio, battery,
//                               mobility model, per-host tables. May
//                               touch other hosts ONLY through the
//                               shared-medium interfaces (phy::Channel,
//                               phy::PagingChannel) or the HostEnv pager
//                               — never via a Node/HostEnv pointer to a
//                               remote host. tools/ecgrid_lint rule
//                               `cross-host-access` enforces this.
//
//   ECGRID_DOMAIN_PER_SCENARIO  Owned by one scenario run: Simulator,
//                               EventQueue, Network, Channel,
//                               SpatialIndex, Observability sinks, stats
//                               recorders, fault injector. One instance
//                               per runScenario call; never shared
//                               between concurrent runs, so needs no
//                               locking — parallel workers each build
//                               their own.
//
//   ECGRID_DOMAIN_GLOBAL        Process-wide and reachable from every
//                               worker thread (util/log's Logger, the
//                               harness thread pool bookkeeping). Must be
//                               thread-safe: atomics, ECGRID_GUARDED_BY
//                               fields, or immutable-after-init. New
//                               mutable globals are rejected by the
//                               `shared-mutable-global` lint rule unless
//                               justified.
//
// The macros expand to nothing — they are declarative markers placed in
// the class head (`class ECGRID_DOMAIN_PER_HOST CsmaMac final ...`) so
// the domain census stays greppable:
//   grep -rn 'ECGRID_DOMAIN_' src/
#pragma once

#define ECGRID_DOMAIN_PER_HOST
#define ECGRID_DOMAIN_PER_SCENARIO
#define ECGRID_DOMAIN_GLOBAL
