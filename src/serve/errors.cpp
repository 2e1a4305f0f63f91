#include "serve/errors.hpp"

namespace onesa::serve {

std::string ErrorContext::describe() const {
  std::string out = " [";
  bool first = true;
  const auto field = [&](const std::string& text) {
    if (!first) out += ' ';
    out += text;
    first = false;
  };
  if (request_id != 0) field("request=" + std::to_string(request_id));
  if (shard != kNone) field("shard=" + std::to_string(shard));
  if (worker != kNone) field("worker=" + std::to_string(worker));
  if (!model.empty())
    field("model=" + model + " v" + std::to_string(model_version));
  field("depth=" + std::to_string(queue_depth));
  field("backlog=" + std::to_string(backlog_cost) + " MACs");
  out += ']';
  return out;
}

}  // namespace onesa::serve
