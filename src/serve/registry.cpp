#include "serve/registry.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "nn/quantized.hpp"
#include "obs/metrics.hpp"

namespace onesa::serve {

namespace {

obs::Counter& version_requests_counter(const std::string& name, std::uint64_t version) {
  return obs::MetricsRegistry::global().counter("serve_model_requests_total{model=\"" +
                                                name + "\",version=\"" +
                                                std::to_string(version) + "\"}");
}

}  // namespace

ModelOptions ModelEntry::options() const {
  ModelOptions opts;
  opts.batchable = batchable;
  opts.batch_window_ms = batch_window_ms;
  opts.precision = precision;
  opts.mac_ops_per_row = mac_ops_override;
  return opts;
}

tensor::Matrix ModelEntry::infer(const tensor::Matrix& x) const {
  return quantized != nullptr ? quantized->infer(x) : model->infer(x);
}

ModelHandle ModelRegistry::publish(std::string name, std::unique_ptr<nn::Sequential> model,
                                   ModelOptions options, bool replace) {
  ONESA_CHECK(model != nullptr, "ModelRegistry('" << name << "'): null model");
  ONESA_CHECK(!name.empty(), "ModelRegistry: empty model name");
  ONESA_CHECK(options.batch_window_ms >= 0.0,
              "ModelRegistry('" << name << "'): negative batch window "
                                << options.batch_window_ms << " ms");

  auto entry = std::make_shared<ModelEntry>();
  entry->name = name;
  entry->batchable = options.batchable;
  entry->batch_window_ms = options.batch_window_ms;
  entry->mac_ops_override = options.mac_ops_per_row;
  if (options.mac_ops_per_row > 0) {
    entry->mac_ops_per_row = options.mac_ops_per_row;
  } else {
    // Census-derived per-row cost (one multiply+add pair = one MAC),
    // computed once here so the dispatcher and admission control never walk
    // the layer graph. See ModelOptions::mac_ops_per_row for what the
    // static census can and cannot see.
    nn::OpCensus census;
    model->count_ops(census, 1);
    entry->mac_ops_per_row =
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(census.total() / 2.0));
  }

  // Pack the weights the entry serves from NOW, while this code still owns
  // the model exclusively: workers then serve from immutable packed panels
  // with zero packing (and zero pack-cache contention) on the request path.
  // The weights never change after this point — published versions are
  // frozen — so the packed form lives as long as the entry. For a swap this
  // all happens BEFORE the registry lock: the publication below is a
  // pointer replace, so readers never see a half-built version.
  //
  // An INT16 entry serves only from its quantized twin: the quantizer walks
  // the frozen weights, packs them into PackedBInt16 panels and borrows the
  // activations' CPWL tables (kept alive by entry->model below). Its double
  // panels are never read by ModelEntry::infer, so they are not built; a
  // direct model->infer still packs them lazily. An unsupported model throws
  // HERE — registration fails loudly; the request path never discovers a
  // precision problem.
  //
  // backward() can never run on the const published model, so its
  // gradients (one weight-sized buffer per parameter) go before packing.
  for (nn::Param* p : model->params()) p->grad = tensor::Matrix();
  entry->precision = options.precision;
  if (options.precision == Precision::kInt16)
    entry->quantized = std::make_shared<const nn::QuantizedModel>(*model);
  else
    model->prepack();
  entry->model = std::shared_ptr<const nn::Sequential>(std::move(model));

  // Declared before the lock, so a replaced version with no other handle is
  // destroyed after the lock is released: unmapping its weights takes
  // milliseconds, and every submit resolves names under this lock.
  ModelHandle retired;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = models_.find(name);
  if (replace) {
    ONESA_CHECK(it != models_.end(),
                "ModelRegistry::swap: unknown model '" << name << "'");
    entry->version = it->second->version + 1;
    entry->requests_metric = &version_requests_counter(entry->name, entry->version);
    // Atomic publish: in-flight handles keep the old version.
    retired = std::exchange(it->second, std::move(entry));
    return it->second;
  }
  ONESA_CHECK(it == models_.end(),
              "ModelRegistry: model '" << name << "' already registered");
  entry->version = 1;
  entry->requests_metric = &version_requests_counter(entry->name, entry->version);
  return models_.emplace(std::move(name), std::move(entry)).first->second;
}

ModelHandle ModelRegistry::add(std::string name, std::unique_ptr<nn::Sequential> model,
                               ModelOptions options) {
  return publish(std::move(name), std::move(model), std::move(options), /*replace=*/false);
}

ModelHandle ModelRegistry::swap(const std::string& name,
                                std::unique_ptr<nn::Sequential> model) {
  // Option-preserving swap: reuse the current version's serving metadata
  // (an unknown name fails in get() with the usual error). The swap lock
  // spans the options read AND the publish, so a concurrent
  // options-replacing swap can never be clobbered by this read-modify-write
  // landing late with stale options.
  std::lock_guard<std::mutex> swap_lock(swap_mutex_);
  return publish(name, std::move(model), get(name)->options(), /*replace=*/true);
}

ModelHandle ModelRegistry::swap(const std::string& name,
                                std::unique_ptr<nn::Sequential> model,
                                ModelOptions options) {
  std::lock_guard<std::mutex> swap_lock(swap_mutex_);
  return publish(name, std::move(model), std::move(options), /*replace=*/true);
}

ModelHandle ModelRegistry::get(const std::string& name) const {
  ModelHandle handle = find(name);
  ONESA_CHECK(handle != nullptr, "ModelRegistry: unknown model '" << name << "'");
  return handle;
}

ModelHandle ModelRegistry::find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = models_.find(name);
  return it == models_.end() ? nullptr : it->second;
}

std::vector<std::string> ModelRegistry::names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(models_.size());
  for (const auto& [name, entry] : models_) out.push_back(name);
  return out;
}

std::size_t ModelRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return models_.size();
}

}  // namespace onesa::serve
