// Transmitter / receiver operators (paper Fig. 3, Sec. VI-A).
//
// Transmitters are Dirac line sources on a ring (or arc) around the
// imaging domain; receivers likewise. The paper models both with delta
// functions:
//   phi_inc_n        = sum_t (i/4) H0(k|r_n - r_t|) q_t          (G_T q)
//   phi_sca_r        = sum_n sf * (i/4) H0(k|r_r - r_n|) O_n phi_n  (G_R O phi)
// where sf is the Richmond source-disk factor (the receiver sees the
// *radiated* field of each contrast pixel, integrated over the pixel).
//
// G_R is materialised as a dense R x N matrix when it fits the
// configurable budget, otherwise applied matrix-free. The serial DBIM
// passes project all T illuminations at once through the panel forms
// (apply_gr_panel / apply_gr_herm_panel), so each pass streams the
// materialised G_R once rather than T times. The panel forms thread
// over outputs only and keep each output's single-column summation
// order, so they match T single-column calls bit for bit at any thread
// count.
#pragma once

#include <optional>
#include <vector>

#include "grid/grid.hpp"
#include "linalg/cmatrix.hpp"

namespace ffw {

/// Positions of `count` elements on a circular arc of given radius
/// centred on the domain origin, angles in [angle_begin, angle_end)
/// (radians; full ring by default, uniformly spaced).
std::vector<Vec2> ring_positions(int count, double radius,
                                 double angle_begin = 0.0,
                                 double angle_end = 2.0 * pi);

class Transceivers {
 public:
  /// `materialize_budget` — max number of complex entries the dense G_R
  /// cache may occupy (default 16M entries = 256 MB).
  Transceivers(const Grid& grid, std::vector<Vec2> transmitters,
               std::vector<Vec2> receivers,
               std::size_t materialize_budget = std::size_t{16} << 20);

  int num_transmitters() const { return static_cast<int>(tx_.size()); }
  int num_receivers() const { return static_cast<int>(rx_.size()); }
  const std::vector<Vec2>& transmitters() const { return tx_; }
  const std::vector<Vec2>& receivers() const { return rx_; }

  /// Incident field of transmitter t on all pixels (natural order),
  /// unit source amplitude.
  cvec incident_field(int t) const;

  /// y = G_R x (x: pixel vector, natural order; y: length R).
  /// Materialised, this is apply_gr_panel with nrhs = 1.
  void apply_gr(ccspan x, cspan y) const;

  /// y = G_R^H x (x: length R; y: pixel vector, natural order).
  /// Materialised, this is apply_gr_herm_panel with nrhs = 1.
  void apply_gr_herm(ccspan x, cspan y) const;

  /// Y = G_R X for an N x nrhs natural-order panel X (column-major,
  /// column stride N) into the R x nrhs panel Y (column stride R).
  /// Materialised, one call reads G_R once and runs receiver blocks x
  /// column groups in parallel; each Y(r, t) is summed over pixels in
  /// ascending order whatever the panel width, so Y is bit-identical
  /// to nrhs apply_gr calls at any thread count. Matrix-free, it is
  /// those nrhs calls.
  void apply_gr_panel(ccspan x, cspan y, std::size_t nrhs) const;

  /// Y = G_R^H X (R x nrhs -> N x nrhs), parallel over pixels; each
  /// Y(p, t) is summed over receivers in ascending order. Same
  /// bit-identity and matrix-free contract as apply_gr_panel.
  void apply_gr_herm_panel(ccspan x, cspan y, std::size_t nrhs) const;

  bool gr_materialized() const { return gr_.has_value(); }

  /// Partial G_R products over a pixel subset (used by the distributed
  /// DBIM drivers, where each tree rank owns a slice of the image):
  /// y += sum_i G_R[:, pixels[i]] * x_sub[i]. The parallel drivers call
  /// it once per local illumination column on every G_R projection (two
  /// per DBIM iteration), zero-fill y first and combine the columns of
  /// all illuminations with one batched allreduce over the tree group.
  /// Like apply_gr, it reads the materialised G_R columns when
  /// gr_materialized() holds and evaluates entries per call otherwise.
  void apply_gr_subset(ccspan x_sub, std::span<const std::uint32_t> pixels,
                       cspan y_accum) const;

  /// y_sub[i] = (G_R^H u)[pixels[i]] — the gradient pass's back
  /// projection, one call per local illumination; no communication
  /// (each rank writes only its own pixels). Same materialised /
  /// matrix-free split as apply_gr_subset.
  void apply_gr_herm_subset(ccspan u, std::span<const std::uint32_t> pixels,
                            cspan y_sub) const;

  /// Incident field of transmitter t restricted to a pixel subset;
  /// bit-identical to incident_field(t) at those pixels.
  void incident_field_subset(int t, std::span<const std::uint32_t> pixels,
                             cspan out) const;

 private:
  cplx gr_entry(int r, std::size_t pixel) const;

  const Grid* grid_;
  std::vector<Vec2> tx_, rx_;
  std::optional<CMatrix> gr_;  // R x N cache
};

}  // namespace ffw
