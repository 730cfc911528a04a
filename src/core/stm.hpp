// Umbrella header for the z-linearizable transactional memory library.
//
// The library reproduces "From Causal to z-Linearizable Transactional
// Memory" (Riegel, Sturzrehm, Felber, Fetzer — PODC 2007) and exposes five
// STM runtimes plus their shared substrates:
//
//   zstm::lsa::Runtime       — LSA-STM baseline (linearizable TBTM, §2/[8])
//   zstm::cs::Runtime        — CS-STM, causal serializability (Algorithm 1)
//                              over r-entry REV clocks (§4.3); r = n is the
//                              exact vector clock
//   zstm::sstm::Runtime      — S-STM, serializability (§4.2)
//   zstm::zl::Runtime        — Z-STM, z-linearizability (Algorithms 2 & 3)
//   zstm::tl2::Runtime       — TL2, word-granularity strict
//                              serializability (the comparison baseline)
//
// The recommended entry point is the one façade (api/stm_api.hpp),
// `api::Stm<R>`: every variant behind one interface, with implicit
// per-thread attachment. A variant picked by name at run time goes through
// `api::visit_variant` (see examples/quickstart.cpp):
//
//   zstm::api::ZStm stm;                  // or any api::Stm<R>
//   auto acc = stm.make_var<long>(100);
//   stm.run(zstm::api::TxKind::kUpdate, [&](auto& tx) {
//     tx.write(acc, tx.read(acc) + 1);
//   });
//   stm.run(zstm::api::TxKind::kLong, [&](auto& tx) {
//     long total = tx.read(acc);
//     ...
//   });
//
// The per-runtime raw APIs (explicit attach(), `begin(TxKind)`, native Tx
// types) remain public underneath; Stm<R> bodies receive those native Tx
// types directly.
#pragma once

#include "api/stm_api.hpp"       // IWYU pragma: export
#include "cs/cs.hpp"             // IWYU pragma: export
#include "history/checkers.hpp"  // IWYU pragma: export
#include "lsa/lsa.hpp"           // IWYU pragma: export
#include "sstm/sstm.hpp"         // IWYU pragma: export
#include "tl2/tl2.hpp"           // IWYU pragma: export
#include "zstm/auto_class.hpp"   // IWYU pragma: export
#include "zstm/zstm.hpp"         // IWYU pragma: export
