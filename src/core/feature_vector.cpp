#include "core/feature_vector.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "volume/components.hpp"
#include "volume/ops.hpp"

namespace ifet {

int FeatureVectorSpec::width() const {
  int n = 0;
  if (use_value) ++n;
  if (use_shell) n += shell_samples;
  if (use_position) n += 3;
  if (use_time) ++n;
  if (use_gradient) ++n;
  return n;
}

std::vector<std::string> FeatureVectorSpec::component_names() const {
  std::vector<std::string> names;
  if (use_value) names.push_back("value");
  if (use_shell) {
    for (int s = 0; s < shell_samples; ++s) {
      names.push_back("shell" + std::to_string(s));
    }
  }
  if (use_position) {
    names.push_back("pos_x");
    names.push_back("pos_y");
    names.push_back("pos_z");
  }
  if (use_time) names.push_back("time");
  if (use_gradient) names.push_back("gradient");
  return names;
}

std::vector<Vec3> shell_directions(int count) {
  static const std::vector<Vec3> kAll = [] {
    std::vector<Vec3> dirs;
    // 6 axes.
    dirs.push_back({1, 0, 0});
    dirs.push_back({-1, 0, 0});
    dirs.push_back({0, 1, 0});
    dirs.push_back({0, -1, 0});
    dirs.push_back({0, 0, 1});
    dirs.push_back({0, 0, -1});
    // 8 cube diagonals.
    for (int sx : {-1, 1}) {
      for (int sy : {-1, 1}) {
        for (int sz : {-1, 1}) {
          dirs.push_back(Vec3{static_cast<double>(sx),
                              static_cast<double>(sy),
                              static_cast<double>(sz)}
                             .normalized());
        }
      }
    }
    // 12 edge midpoints.
    const int signs[2] = {-1, 1};
    for (int a : signs) {
      for (int b : signs) {
        dirs.push_back(Vec3{static_cast<double>(a), static_cast<double>(b), 0}
                           .normalized());
        dirs.push_back(Vec3{static_cast<double>(a), 0, static_cast<double>(b)}
                           .normalized());
        dirs.push_back(Vec3{0, static_cast<double>(a), static_cast<double>(b)}
                           .normalized());
      }
    }
    return dirs;
  }();
  IFET_REQUIRE(count > 0 && count <= static_cast<int>(kAll.size()),
               "shell_directions: supported counts are 1..26");
  return {kAll.begin(), kAll.begin() + count};
}

std::vector<Vec3> shell_offsets(double radius, int count) {
  std::vector<Vec3> offsets = shell_directions(count);
  // 1/256 voxel is an exact binary fraction: the rounded offsets and all
  // voxel+offset sums are exactly representable, which pins the trilinear
  // weights to per-direction constants (see the header for why).
  for (Vec3& o : offsets) {
    o.x = std::round(radius * o.x * 256.0) / 256.0;
    o.y = std::round(radius * o.y * 256.0) / 256.0;
    o.z = std::round(radius * o.z * 256.0) / 256.0;
  }
  return offsets;
}

std::vector<double> assemble_feature_vector(const FeatureVectorSpec& spec,
                                            const FeatureContext& context,
                                            int i, int j, int k) {
  IFET_REQUIRE(context.volume != nullptr,
               "assemble_feature_vector: null volume");
  const VolumeF& vol = *context.volume;
  const double span = std::max(1e-12, context.value_hi - context.value_lo);
  auto norm_value = [&](double v) {
    return clamp((v - context.value_lo) / span, 0.0, 1.0);
  };

  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(spec.width()));
  if (spec.use_value) {
    out.push_back(norm_value(vol.clamped(i, j, k)));
  }
  if (spec.use_shell) {
    const auto offsets = shell_offsets(spec.shell_radius, spec.shell_samples);
    for (const Vec3& off : offsets) {
      out.push_back(norm_value(vol.sample(i + off.x, j + off.y, k + off.z)));
    }
  }
  if (spec.use_position) {
    const Dims d = vol.dims();
    out.push_back(static_cast<double>(i) / std::max(1, d.x - 1));
    out.push_back(static_cast<double>(j) / std::max(1, d.y - 1));
    out.push_back(static_cast<double>(k) / std::max(1, d.z - 1));
  }
  if (spec.use_time) {
    out.push_back(static_cast<double>(context.step) /
                  std::max(1, context.num_steps - 1));
  }
  if (spec.use_gradient) {
    // Normalize by the value span; central differences are bounded by it.
    out.push_back(clamp(gradient_at(vol, i, j, k).norm() / span, 0.0, 1.0));
  }
  return out;
}

FeatureBlockAssembler::FeatureBlockAssembler(const FeatureVectorSpec& spec,
                                             const FeatureContext& context)
    : spec_(spec), context_(context), width_(spec.width()) {
  IFET_REQUIRE(context_.volume != nullptr, "FeatureBlockAssembler: null volume");
  span_ = std::max(1e-12, context_.value_hi - context_.value_lo);
  const Dims d = context_.volume->dims();
  if (spec_.use_shell) {
    const auto offsets = shell_offsets(spec_.shell_radius, spec_.shell_samples);
    taps_.reserve(offsets.size());
    for (const Vec3& off : offsets) {
      ShellTap tap;
      tap.kx = static_cast<int>(std::floor(off.x));
      tap.ky = static_cast<int>(std::floor(off.y));
      tap.kz = static_cast<int>(std::floor(off.z));
      // Exact: off - floor(off) is a multiple of 1/256, and it equals the
      // (i + off) - floor(i + off) the scalar path computes (both sums are
      // exact). These are the voxel-independent trilinear weights.
      tap.fx = off.x - static_cast<double>(tap.kx);
      tap.fy = off.y - static_cast<double>(tap.ky);
      tap.fz = off.z - static_cast<double>(tap.kz);
      taps_.push_back(tap);
    }
  }
  // Denominators (not reciprocals) so the division matches the scalar
  // path bit for bit.
  den_x_ = static_cast<double>(std::max(1, d.x - 1));
  den_y_ = static_cast<double>(std::max(1, d.y - 1));
  den_z_ = static_cast<double>(std::max(1, d.z - 1));
  time_value_ = static_cast<double>(context_.step) /
                std::max(1, context_.num_steps - 1);
}

namespace {

// Volume::sample's lerp chain over eight corner values (x fastest, then y,
// then z), with the tap's constant weights.
inline double trilerp(double c000, double c100, double c010, double c110,
                      double c001, double c101, double c011, double c111,
                      double fx, double fy, double fz) {
  const double c00 = lerp(c000, c100, fx);
  const double c10 = lerp(c010, c110, fx);
  const double c01 = lerp(c001, c101, fx);
  const double c11 = lerp(c011, c111, fx);
  return lerp(lerp(c00, c10, fy), lerp(c01, c11, fy), fz);
}

}  // namespace

void FeatureBlockAssembler::assemble_feature_cols(const Index3* voxels,
                                                  int count, double* out,
                                                  int ld) const {
  IFET_REQUIRE(count == 0 || (voxels != nullptr && out != nullptr),
               "assemble_feature_cols: null block buffer");
  IFET_REQUIRE(ld >= count, "assemble_feature_cols: ld shorter than batch");
  const VolumeF& vol = *context_.volume;
  const Dims d = vol.dims();
  const float* data = vol.data().data();
  const double lo = context_.value_lo;
  const double span = span_;
  // Start of the clamped x-row (y, z).
  auto row_at = [&](int y, int z) {
    y = std::clamp(y, 0, d.y - 1);
    z = std::clamp(z, 0, d.z - 1);
    return data + static_cast<std::size_t>(d.x) *
                      (static_cast<std::size_t>(y) +
                       static_cast<std::size_t>(d.y) *
                           static_cast<std::size_t>(z));
  };
  // Chunk so the run table lives on the stack; within a chunk every
  // column write is one tight loop over voxels.
  constexpr int kChunk = 256;
  for (int v0 = 0; v0 < count; v0 += kChunk) {
    const int n = std::min(kChunk, count - v0);
    const Index3* vx = voxels + v0;
    int comp = 0;
    auto col_at = [&](int c) {
      return out + static_cast<std::size_t>(c) * ld + v0;
    };
    if (spec_.use_value) {
      double* col = col_at(comp++);
      for (int v = 0; v < n; ++v) {
        col[v] =
            clamp((vol.clamped(vx[v].x, vx[v].y, vx[v].z) - lo) / span, 0.0,
                  1.0);
      }
    }
    if (spec_.use_shell) {
      // The classify sweeps feed x-fastest voxel lists, so a chunk is a
      // handful of maximal x-runs (consecutive x on one row). Within a run
      // every tap's eight corners are contiguous float loads from four
      // rows, which the vectorizer handles.
      int run_start[kChunk];
      int run_len[kChunk];
      int nruns = 0;
      for (int v = 0; v < n;) {
        const int s = v++;
        while (v < n && vx[v].x == vx[v - 1].x + 1 && vx[v].y == vx[s].y &&
               vx[v].z == vx[s].z) {
          ++v;
        }
        run_start[nruns] = s;
        run_len[nruns] = v - s;
        ++nruns;
      }
      // Direction-outer: one tap's corner offsets and trilinear weights
      // stay in registers while the loop streams voxels.
      for (const ShellTap& tap : taps_) {
        double* col = col_at(comp++);
        const int kx = tap.kx;
        const double fx = tap.fx, fy = tap.fy, fz = tap.fz;
        for (int rr = 0; rr < nruns; ++rr) {
          const int rs = run_start[rr];
          const int len = run_len[rr];
          const Index3 first = vx[rs];
          const int y = first.y + tap.ky;
          const int z = first.z + tap.kz;
          const float* r00 = row_at(y, z);
          const float* r10 = row_at(y + 1, z);
          const float* r01 = row_at(y, z + 1);
          const float* r11 = row_at(y + 1, z + 1);
          double* o = col + rs;
          // Voxel first.x + u reads x-corners first.x + u + kx and + 1;
          // both are in range for u in [ua, ub). Outside it both clamp to
          // the same boundary voxel.
          const int x0 = first.x + kx;
          const int ua = std::clamp(-x0, 0, len);
          const int ub = std::clamp(d.x - 1 - x0, ua, len);
          auto edge = [&](int u) {
            const int xe = std::clamp(x0 + u, 0, d.x - 1);
            const double s =
                trilerp(r00[xe], r00[xe], r10[xe], r10[xe], r01[xe],
                        r01[xe], r11[xe], r11[xe], fx, fy, fz);
            o[u] = clamp((s - lo) / span, 0.0, 1.0);
          };
          for (int u = 0; u < ua; ++u) edge(u);
          if (ua < ub) {
            const float* a00 = r00 + (x0 + ua);
            const float* a10 = r10 + (x0 + ua);
            const float* a01 = r01 + (x0 + ua);
            const float* a11 = r11 + (x0 + ua);
            double* ou = o + ua;
            const int m = ub - ua;
            for (int u = 0; u < m; ++u) {
              const double s =
                  trilerp(a00[u], a00[u + 1], a10[u], a10[u + 1], a01[u],
                          a01[u + 1], a11[u], a11[u + 1], fx, fy, fz);
              ou[u] = clamp((s - lo) / span, 0.0, 1.0);
            }
          }
          for (int u = ub; u < len; ++u) edge(u);
        }
      }
    }
    if (spec_.use_position) {
      double* cx = col_at(comp++);
      double* cy = col_at(comp++);
      double* cz = col_at(comp++);
      for (int v = 0; v < n; ++v) {
        cx[v] = static_cast<double>(vx[v].x) / den_x_;
        cy[v] = static_cast<double>(vx[v].y) / den_y_;
        cz[v] = static_cast<double>(vx[v].z) / den_z_;
      }
    }
    if (spec_.use_time) {
      double* col = col_at(comp++);
      for (int v = 0; v < n; ++v) col[v] = time_value_;
    }
    if (spec_.use_gradient) {
      double* col = col_at(comp++);
      for (int v = 0; v < n; ++v) {
        col[v] = clamp(
            gradient_at(vol, vx[v].x, vx[v].y, vx[v].z).norm() / span, 0.0,
            1.0);
      }
    }
  }
}

double derive_shell_radius(const Mask& positive_samples) {
  Labeling labeling = label_components(positive_samples);
  if (labeling.components.empty()) return 3.0;
  double mean_half_extent = 0.0;
  for (const auto& c : labeling.components) {
    double ex = c.bbox_max.x - c.bbox_min.x + 1;
    double ey = c.bbox_max.y - c.bbox_min.y + 1;
    double ez = c.bbox_max.z - c.bbox_min.z + 1;
    mean_half_extent += (ex + ey + ez) / 6.0;
  }
  mean_half_extent /= static_cast<double>(labeling.components.size());
  return clamp(mean_half_extent, 1.5, 6.0);
}

}  // namespace ifet
