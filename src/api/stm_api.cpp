// AnyStm: name resolution and the type-erased runtime wrappers. The six
// Stm<R> instantiations behind the seven variant names live in this TU, so
// code that uses only Stm<R> never instantiates them.
#include "api/stm_api.hpp"

#include <stdexcept>

namespace zstm::api {
namespace {

/// Erased wrapper: AnyStm ops over a concrete Stm<R>. Each access crosses
/// one function pointer (the price of run-time runtime selection).
template <typename R>
class AnyStmOf final : public detail::AnyStmBase {
 public:
  using Tx = typename Stm<R>::Tx;
  using Object = std::remove_pointer_t<decltype(std::declval<R&>()
                                                    .allocate_object(nullptr))>;

  explicit AnyStmOf(const CommonConfig& cfg) : stm_(cfg) {}

  void* make_object(runtime::Payload* initial) override {
    return stm_.runtime().allocate_object(initial);
  }

  RunResult run(TxKind kind, FunctionRef<void(TxHandle&)> body,
                std::uint32_t max_attempts) override {
    return stm_.run(
        kind,
        [&](Tx& native) {
          TxHandle handle(&native, ops());
          body(handle);
        },
        max_attempts);
  }

  util::StatsSnapshot stats() const override { return stm_.stats(); }
  void reset_stats() override { stm_.reset_stats(); }
  util::ProgressTracker::Snapshot progress() const override {
    return stm_.progress();
  }
  const CommonConfig& config() const override { return stm_.config(); }

 private:
  static const TxHandle::Ops* ops() {
    static const TxHandle::Ops kOps{
        [](void* tx, void* obj) -> const runtime::Payload& {
          return static_cast<Tx*>(tx)->read_object(*static_cast<Object*>(obj));
        },
        [](void* tx, void* obj) -> runtime::Payload& {
          return static_cast<Tx*>(tx)->write_object(*static_cast<Object*>(obj));
        },
        [](void* tx) { static_cast<Tx*>(tx)->abort(); },
    };
    return &kOps;
  }

  Stm<R> stm_;
};

}  // namespace

AnyStm AnyStm::make(std::string_view name, CommonConfig cfg) {
  // One dispatch table for the whole library: visit_variant (stm_api.hpp).
  return visit_variant(
      name, cfg,
      [](auto tag, const char* canonical, const CommonConfig& variant_cfg) {
        using S = typename decltype(tag)::type;  // Stm<R>
        using R = typename S::Runtime;
        return AnyStm(std::make_unique<AnyStmOf<R>>(variant_cfg), canonical);
      });
}

}  // namespace zstm::api
