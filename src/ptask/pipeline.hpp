// Parallel Task pipelines: a chain of stages, all active simultaneously —
// element k can be in stage 3 while element k+2 is in stage 1. Order is
// preserved end to end (each stage is sequential), which is the semantics
// Parallel Task's pipeline construct gives GUI applications streaming
// intermediate results.
//
//   auto done = ptask::pipeline(rt, std::move(paths),
//       [](std::string p){ return load(p); },
//       [](Image i){ return scale(i); });
//   std::vector<Thumb> thumbs = done.get();
//
// This is a thin front over flow::Pipeline: each ptask stage becomes one
// flow::stage with its own dedicated thread, connected by SPSC channels of
// capacity 256 that back-pressure a fast stage instead of buffering the
// whole stream. One interactive task feeds the inputs and returns
// Pipeline::wait(), which joins the stages and rethrows the first stage
// exception into get() (flow's poison cascade stops the other stages).
//
// Every stage result is wrapped in std::optional before flow sees it, so a
// ptask stage is always a map: a stage that itself returns std::optional<U>
// emits that optional as a value, and a flush() member is never called.
// For filters, per-stage parallelism or fusion, use flow::Pipeline directly.
#pragma once

#include <cstddef>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "flow/pipeline.hpp"
#include "ptask/spawn.hpp"

namespace parc::ptask {

namespace detail {

/// Elements buffered per edge before the stage feeding it blocks.
inline constexpr std::size_t kStageChannelCapacity = 256;

/// No stages left: collect the last edge into a vector.
template <typename In, typename Builder>
auto add_stages(Builder b) {
  return std::move(b).collect();
}

/// Append `f` as one materialized flow stage, then the rest of the chain.
template <typename In, typename Builder, typename F, typename... Rest>
auto add_stages(Builder b, F f, Rest... rest) {
  using Out = std::invoke_result_t<F&, In>;
  static_assert(!std::is_void_v<Out>,
                "pipeline stages must return a value; put side effects in "
                "the sink stage's result");
  auto next = std::move(b).then(flow::stage(
      [f = std::move(f)](In x) mutable {
        return std::optional<Out>(f(std::move(x)));
      }));
  return add_stages<Out>(std::move(next), std::move(rest)...);
}

}  // namespace detail

/// Build and start a pipeline over `inputs`; returns a handle whose value is
/// the ordered vector of final-stage outputs.
template <typename In, typename... Stages>
auto pipeline(Runtime& rt, std::vector<In> inputs, Stages... stages) {
  auto p = detail::add_stages<In>(
      flow::pipeline<In>({.capacity = detail::kStageChannelCapacity,
                          .single_producer = true}),
      std::move(stages)...);
  return run_interactive(rt, [p, inputs = std::move(inputs)]() mutable {
    for (auto& x : inputs) {
      if (!p.push(std::move(x))) break;  // a stage failed; wait() rethrows
    }
    return p.wait();
  });
}

template <typename In, typename... Stages>
auto pipeline(std::vector<In> inputs, Stages... stages) {
  return pipeline(Runtime::global(), std::move(inputs), std::move(stages)...);
}

}  // namespace parc::ptask
