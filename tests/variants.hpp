// The façade types the typed suites run, one per variant clock.
//
// cs-vc and cs-r are one façade type, api::CsStm, told apart by their clock
// width alone. api::CsStm takes the Config as given, as "cs-r" does;
// CsVcStm gives "cs-vc" a type of its own, built from the Config
// api::visit_variant gives that name, so a typed list runs both clocks.
#pragma once

#include <gtest/gtest.h>

#include <string_view>

#include "api/stm_api.hpp"

namespace zstm::test_env {

/// `cfg` as api::visit_variant adjusts it for `name`.
inline api::CommonConfig variant_config(std::string_view name,
                                        api::CommonConfig cfg) {
  return api::visit_variant(name, cfg,
                            [](auto, const char*, const api::CommonConfig& c) {
                              return c;
                            });
}

struct CsVcStm : api::CsStm {
  explicit CsVcStm(api::CommonConfig cfg = {})
      : api::CsStm(variant_config("cs-vc", cfg)) {}
};

/// Every runtime behind the façade, both cs clocks included.
using Variants = ::testing::Types<api::LsaStm, CsVcStm, api::CsStm,
                                  api::SStm, api::ZStm, api::Tl2Stm>;

}  // namespace zstm::test_env
