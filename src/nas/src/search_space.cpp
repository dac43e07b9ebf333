#include "dcnas/nas/search_space.hpp"

#include <algorithm>
#include <sstream>

#include "dcnas/common/error.hpp"
#include "dcnas/common/strings.hpp"

namespace dcnas::nas {

namespace {

using Dimension = SearchSpaceSpec::Dimension;
using Role = SearchSpaceSpec::Role;

/// The lattice's dimensions, in persisted order (see Dimension).
constexpr Dimension kDimensions[] = {
    {"ch", &SearchSpaceSpec::channels, &TrialConfig::channels, "channels",
     Role::kInput},
    {"b", &SearchSpaceSpec::batches, &TrialConfig::batch, "batch",
     Role::kInput},
    {"k", &SearchSpaceSpec::kernels, &TrialConfig::kernel_size, "kernel_size",
     Role::kArchitecture},
    {"s", &SearchSpaceSpec::strides, &TrialConfig::stride, "stride",
     Role::kArchitecture},
    {"p", &SearchSpaceSpec::paddings, &TrialConfig::padding, "padding",
     Role::kArchitecture},
    {"pc", &SearchSpaceSpec::pool_choices, &TrialConfig::pool_choice,
     "pool_choice", Role::kArchitecture},
    {"pk", &SearchSpaceSpec::pool_kernels, &TrialConfig::kernel_size_pool,
     "kernel_size_pool", Role::kArchitecture},
    {"ps", &SearchSpaceSpec::pool_strides, &TrialConfig::stride_pool,
     "stride_pool", Role::kArchitecture},
    {"w", &SearchSpaceSpec::widths, &TrialConfig::initial_output_feature,
     "initial_output_feature", Role::kArchitecture},
    {"q", &SearchSpaceSpec::precisions, &TrialConfig::precision, "precision",
     Role::kServing},
    {"d", &SearchSpaceSpec::depths, &TrialConfig::depth, "depth",
     Role::kArchitecture},
};

bool has(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

/// Throws naming the first dimension of \p config outside \p space.
void check_member(const SearchSpaceSpec& space, const TrialConfig& config,
                  const char* space_name) {
  for (const Dimension& d : kDimensions) {
    DCNAS_CHECK(has(space.*d.options, config.*d.field),
                std::string(d.name) + " outside " + space_name);
  }
}

/// The paper lattice with both serving precisions: what validate() admits.
const SearchSpaceSpec& paper_space() {
  static const SearchSpaceSpec space = [] {
    SearchSpaceSpec s = SearchSpaceSpec::paper();
    s.precisions = {0, 1};
    return s;
  }();
  return space;
}

/// The widest lattice any spec may span: what validate_universe() admits.
const SearchSpaceSpec& universe() {
  static const SearchSpaceSpec space = SearchSpaceSpec::wide();
  return space;
}

int pick(const std::vector<int>& options, Rng& rng) {
  return options[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(options.size()) - 1))];
}

int pick_different(const std::vector<int>& options, int current, Rng& rng) {
  int value = current;
  while (value == current && options.size() > 1) value = pick(options, rng);
  return value;
}

/// A spec's searched rows (more than one option) sorted by Role, stable
/// within a role: the order crossover and mutation draw in.
class VariationOrder {
 public:
  explicit VariationOrder(const SearchSpaceSpec& space) {
    for (Role role : {Role::kArchitecture, Role::kInput, Role::kServing}) {
      for (const Dimension& d : kDimensions) {
        if (d.role == role && (space.*d.options).size() > 1) rows_[n_++] = &d;
      }
    }
  }
  std::span<const Dimension* const> rows() const { return {rows_, n_}; }

 private:
  const Dimension* rows_[std::size(kDimensions)] = {};
  std::size_t n_ = 0;
};

}  // namespace

nn::ResNetConfig TrialConfig::to_resnet_config() const {
  validate_universe();
  nn::ResNetConfig cfg;
  cfg.in_channels = channels;
  cfg.conv1_kernel = kernel_size;
  cfg.conv1_stride = stride;
  cfg.conv1_padding = padding;
  cfg.with_pool = with_pool();
  cfg.pool_kernel = kernel_size_pool;
  cfg.pool_stride = stride_pool;
  cfg.init_width = initial_output_feature;
  cfg.blocks_per_stage = depth;
  cfg.num_classes = 2;
  return cfg;
}

TrialConfig TrialConfig::baseline(int channels, int batch) {
  TrialConfig c;
  c.channels = channels;
  c.batch = batch;
  c.validate();
  return c;
}

void TrialConfig::validate() const {
  check_member(paper_space(), *this, "search space");
}

void TrialConfig::validate_universe() const {
  check_member(universe(), *this, "universe");
}

std::string TrialConfig::canonical_arch_key() const {
  std::ostringstream os;
  os << "ch" << channels << "_k" << kernel_size << "_s" << stride << "_p"
     << padding << "_w" << initial_output_feature;
  if (with_pool()) {
    os << "_pool" << kernel_size_pool << "x" << stride_pool;
  } else {
    os << "_nopool";
  }
  // Suffix only off the default so every pre-depth-axis key is unchanged.
  if (depth != 2) os << "_d" << depth;
  return os.str();
}

std::string TrialConfig::lattice_key() const {
  std::ostringstream os;
  os << canonical_arch_key() << "_b" << batch << "_pc" << pool_choice << "_pk"
     << kernel_size_pool << "_ps" << stride_pool;
  // Suffix only when quantized: every pre-existing fp32 key is unchanged,
  // so stores and databases written before the precision axis stay valid.
  if (int8()) os << "_q8";
  return os.str();
}

std::uint64_t TrialConfig::encode() const {
  std::uint64_t code = 0;
  for (int v : {channels, batch, kernel_size, stride, padding, pool_choice,
                kernel_size_pool, stride_pool, initial_output_feature}) {
    code = code * 97 + static_cast<std::uint64_t>(v);
  }
  // Folded in only off the default (like the key suffixes) so every
  // pre-depth-axis encoding — and the oracle noise keyed on it — is stable.
  if (depth != 2) {
    code = splitmix64(code ^ (0xd00dULL + static_cast<std::uint64_t>(depth)));
  }
  return code;
}

std::string TrialConfig::to_string() const {
  std::ostringstream os;
  os << "TrialConfig{ch=" << channels << ", b=" << batch
     << ", k=" << kernel_size << ", s=" << stride << ", p=" << padding
     << ", pool_choice=" << pool_choice << " (k=" << kernel_size_pool
     << ", s=" << stride_pool << "), w=" << initial_output_feature
     << ", d=" << depth << (int8() ? ", int8" : "") << "}";
  return os.str();
}

std::span<const Dimension> SearchSpaceSpec::dimensions() {
  return kDimensions;
}

SearchSpaceSpec SearchSpaceSpec::paper() {
  SearchSpaceSpec s;
  s.channels = {5, 7};
  s.batches = {8, 16, 32};
  s.kernels = {3, 7};
  s.strides = {1, 2};
  s.paddings = {1, 2, 3};
  s.pool_choices = {0, 1};
  s.pool_kernels = {2, 3};
  s.pool_strides = {1, 2};
  s.widths = {32, 48, 64};
  s.precisions = {0};
  s.depths = {2};
  return s;
}

SearchSpaceSpec SearchSpaceSpec::wide() {
  SearchSpaceSpec s;
  s.channels = {5, 7};
  s.batches = {4, 8, 16, 32, 64};
  s.kernels = {1, 3, 5, 7};
  s.strides = {1, 2};
  s.paddings = {0, 1, 2, 3};
  s.pool_choices = {0, 1};
  s.pool_kernels = {2, 3, 4};
  s.pool_strides = {1, 2};
  s.widths = {16, 24, 32, 48, 64, 96};
  s.precisions = {0, 1};
  s.depths = {1, 2, 3};
  return s;
}

std::int64_t SearchSpaceSpec::size() const {
  std::int64_t n = 1;
  for (const Dimension& d : kDimensions) {
    n *= static_cast<std::int64_t>((this->*d.options).size());
  }
  return n;
}

TrialConfig SearchSpaceSpec::at(std::int64_t i) const {
  DCNAS_CHECK(i >= 0 && i < size(), "lattice index out of range");
  TrialConfig c;
  // Mixed-radix decode, least-significant dimension last.
  for (auto d = std::rbegin(kDimensions); d != std::rend(kDimensions); ++d) {
    const std::vector<int>& options = this->*d->options;
    const auto radix = static_cast<std::int64_t>(options.size());
    c.*d->field = options[static_cast<std::size_t>(i % radix)];
    i /= radix;
  }
  return c;
}

bool SearchSpaceSpec::contains(const TrialConfig& c) const {
  return std::all_of(
      std::begin(kDimensions), std::end(kDimensions),
      [&](const Dimension& d) { return has(this->*d.options, c.*d.field); });
}

std::string SearchSpaceSpec::describe() const {
  std::ostringstream os;
  os << "dcnas-lattice v1";
  for (const Dimension& d : kDimensions) {
    const std::vector<int>& options = this->*d.options;
    os << ';' << d.key << '=';
    for (std::size_t j = 0; j < options.size(); ++j) {
      if (j) os << ',';
      os << options[j];
    }
  }
  os << ";n=" << size();
  return os.str();
}

std::uint64_t SearchSpaceSpec::fingerprint() const {
  return fnv1a64(describe());
}

std::vector<TrialConfig> SearchSpaceSpec::enumerate() const {
  const std::int64_t n = size();
  std::vector<TrialConfig> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    TrialConfig c = at(i);
    if (!c.geometry_ok()) continue;  // same skip rule as LatticeStream
    out.push_back(std::move(c));
  }
  return out;
}

void SearchSpaceSpec::validate() const {
  for (const Dimension& d : kDimensions) {
    const std::vector<int>& options = this->*d.options;
    DCNAS_CHECK(!options.empty(),
                std::string(d.name) + " dimension has no options");
    for (auto it = options.begin(); it != options.end(); ++it) {
      DCNAS_CHECK(has(universe().*d.options, *it),
                  std::string(d.name) + " outside universe");
      DCNAS_CHECK(std::find(options.begin(), it, *it) == it,
                  std::string(d.name) + " lists an option twice");
    }
  }
}

TrialConfig SearchSpaceSpec::sample(Rng& rng) const {
  TrialConfig c;
  for (const Dimension& d : kDimensions) {
    const std::vector<int>& options = this->*d.options;
    c.*d.field = options.size() > 1 ? pick(options, rng) : options.front();
  }
  return c;
}

TrialConfig SearchSpaceSpec::crossover(const TrialConfig& a,
                                       const TrialConfig& b, Rng& rng) const {
  const VariationOrder order(*this);
  TrialConfig child = a;
  for (const Dimension* d : order.rows()) {
    if (rng.bernoulli(0.5)) child.*d->field = b.*d->field;
  }
  return child;
}

TrialConfig SearchSpaceSpec::mutate(const TrialConfig& parent, Rng& rng) const {
  const VariationOrder order(*this);
  const auto rows = order.rows();
  DCNAS_CHECK(!rows.empty(), "mutation needs a dimension with two options");
  const Dimension& d = *rows[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(rows.size()) - 1))];
  TrialConfig child = parent;
  child.*d.field = pick_different(this->*d.options, parent.*d.field, rng);
  return child;
}

LatticeStream::LatticeStream(const SearchSpaceSpec& spec, std::int64_t start,
                             std::int64_t stride)
    : spec_(spec), next_index_(start), stride_(stride), size_(spec.size()) {
  DCNAS_CHECK(start >= 0, "lattice stream start must be >= 0");
  DCNAS_CHECK(stride >= 1, "lattice stream stride must be >= 1");
  spec_.validate();
}

std::optional<TrialConfig> LatticeStream::next() {
  // Unbuildable lattice points (see TrialConfig::geometry_ok) are skipped,
  // not yielded — the same rule enumerate() applies, so a streamed sweep
  // and a serial sweep evaluate exactly the same set.
  while (next_index_ < size_) {
    TrialConfig c = spec_.at(next_index_);
    next_index_ += stride_;
    if (c.geometry_ok()) return c;
  }
  return std::nullopt;
}

std::int64_t LatticeStream::total() const {
  // Upper bound: geometry-skipped points still count (progress accounting
  // only; exact filtering would cost a full lattice walk).
  const std::int64_t start =
      next_index_;  // call before consuming for the full count
  if (start >= size_) return 0;
  return (size_ - start + stride_ - 1) / stride_;
}

}  // namespace dcnas::nas
