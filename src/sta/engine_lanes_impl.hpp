#pragma once

// INTERNAL header — the width-templated body of
// StaEngine::evaluate_delta_block<W>, shared by engine_lanes.cpp
// (W=1, the oracle and non-AVX2 fallback) and engine_lanes_avx2.cpp
// (W=4 under -mavx2).  Include "sta/engine.hpp" instead.
//
// The walker replays evaluate_delta() with W sweep points in flight:
// one pass over the plan's worklists, every (vertex, rise/fall)
// carrying W points' arrival/slew/required/valid/critical-pred values
// in adjacent lanes of a structure-of-arrays scratch.  The forward
// pass is value-change-bounded: the plan's cone is only the structural
// bound, and a vertex is reset and folded only when a fan-in source
// changed in this block or a net in-edge is annotated in a real lane
// (anything else would refold the baseline's inputs into the
// baseline's value).  The backward (required-time) pass runs in states
// mode only: endpoint-rows mode reads only endpoints, and an endpoint
// has no out-edge (make_graph asserts it), so its required time is its
// constraint, which its baseline row already holds.  Lane j is an
// independent scalar fold — candidate values are computed for all
// lanes with the exact scalar op sequence (via wave::Lane<W>) and
// committed through per-lane select masks that reproduce the scalar
// control flow (relax()'s max-update, backward_vertex()'s guarded
// min-fold).  Nothing ever reduces ACROSS lanes, so the W=4
// instantiation is bitwise identical to W=1, which is structurally the
// scalar code.
//
// Γeff fits at noisy edges stay scalar per lane (they call the same
// StaEngine::noisy_fit the scalar path uses); lanes whose context does
// not annotate the edge keep their vector value — which is exactly the
// scalar behaviour, since noisy_fit no-ops without an annotation.
//
// Blocks narrower than W pad by replicating the last real lane's
// context so every lane reads well-defined data; pad results are
// discarded at materialization (lanes never feed each other, so pad
// lanes cannot perturb real ones).
//
// Materialization writes either a full TimingState per real lane
// (baseline copy + overwrite of changed and required-time vertices) or,
// in endpoint-rows mode, only the lane's E endpoint rows — the same
// values the full state would hold at those vertices, with no V-sized
// copy — built in the worker's scratch and handed to LaneOutput::on_rows
// point by point.

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <limits>

#include "sta/engine.hpp"
#include "wave/lanes.hpp"

namespace waveletic::sta {

/// Per-worker scratch of the lane-block walker.  The vertex stamps are
/// epoch-stamped so a new block costs O(cone), not O(V); the SoA
/// arrays are laid out field[(slot * 2 + rf) * W + lane] and grow
/// monotonically.  critical_pred / critical_pred_rf are stored as
/// doubles (exact for any vertex id) so masked commits stay uniform
/// vector selects.
struct StaEngine::LaneScratch {
  /// == epoch: v changed in this block — some real lane's arrival-side
  /// state (in the SoA) differs from the baseline.  Unstamped vertices
  /// read as the baseline.
  std::vector<uint32_t> fwd_stamp;
  std::vector<uint32_t> bwd_stamp;  ///< == epoch: (v, rf) required state in SoA
  std::vector<int32_t> slot;        ///< dense SoA slot of a folded vertex
  uint32_t epoch = 0;
  std::vector<double> arrival, slew, required, valid, pred, pred_rf;
  /// The point state a width-4 singleton block evaluates into in
  /// endpoint-rows mode (scalar evaluate_delta(); reused across points).
  TimingState point;
  /// One point's E endpoint rows in endpoint-rows mode (handed to
  /// LaneOutput::on_rows straight from here).
  std::vector<VertexTiming> rows;
  /// Σ over this worker's points of the forward vertices folded for
  /// them (a block's folds count once per real lane).
  uint64_t folded = 0;

  void ensure(size_t num_vertices) {
    if (fwd_stamp.size() < num_vertices) {
      fwd_stamp.assign(num_vertices, 0);
      bwd_stamp.assign(num_vertices, 0);
      slot.assign(num_vertices, -1);
      epoch = 0;
    }
  }
};

template <int W>
void StaEngine::evaluate_delta_block(
    const LaneBlock& block, LaneOutput out,
    std::span<const EvalContext> contexts,
    std::span<const TimingState* const> baselines, wave::Workspace* workspace,
    LaneScratch& s) const {
  using L = wave::Lane<W>;
  using D = typename L::D;
  using M = typename L::M;
  constexpr double kInf = std::numeric_limits<double>::infinity();

  const DeltaPlan& plan = *block.plan;
  const size_t n_real = block.points.size();
  const TimingState& baseline = *baselines[block.points[0]];

  // Per-lane contexts with the executing worker's workspace patched in;
  // pad lanes replicate the last real point's context.
  std::array<EvalContext, W> ctx;
  for (int j = 0; j < W; ++j) {
    const size_t jj = std::min(static_cast<size_t>(j), n_real - 1);
    ctx[j] = contexts[block.points[jj]];
    if (workspace != nullptr) ctx[j].workspace = workspace;
  }
  // Corner scales are block-uniform (grouping keys on the corner).
  const double delay_scale =
      ctx[0].corner != nullptr ? ctx[0].corner->cell_delay_scale : 1.0;
  const double slew_scale =
      ctx[0].corner != nullptr ? ctx[0].corner->cell_slew_scale : 1.0;
  const double wire_scale =
      ctx[0].corner != nullptr ? ctx[0].corner->wire_delay_scale : 1.0;
  const D v_delay_scale = L::broadcast(delay_scale);
  const D v_slew_scale = L::broadcast(slew_scale);
  const D zero = L::broadcast(0.0);
  const D one = L::broadcast(1.0);

  // --- slot assignment (epoch-stamped: no O(V) clearing per block) ---
  // Required times are walked in states mode only: endpoint-rows mode
  // reads only endpoints, whose required time is their constraint.
  const bool walk_backward = !out.states.empty();
  s.ensure(vertex_names_.size());
  if (++s.epoch == 0) {  // wrapped: hard reset once per 2^32 blocks
    std::fill(s.fwd_stamp.begin(), s.fwd_stamp.end(), 0u);
    std::fill(s.bwd_stamp.begin(), s.bwd_stamp.end(), 0u);
    s.epoch = 1;
  }
  const uint32_t epoch = s.epoch;
  int32_t n_slots = 0;
  if (walk_backward) {
    for (const int v : plan.backward) {
      s.slot[static_cast<size_t>(v)] = n_slots++;
      s.bwd_stamp[static_cast<size_t>(v)] = epoch;
    }
    // The backward set includes the forward set by construction; this
    // keeps slots valid even for hand-built plans that violate it.
    for (const int v : plan.forward) {
      if (s.bwd_stamp[static_cast<size_t>(v)] != epoch) {
        s.slot[static_cast<size_t>(v)] = n_slots++;
      }
    }
  }
  // Without the backward walk, forward slots are handed out as vertices
  // get folded; the cone bounds how many.
  const size_t max_slots =
      walk_backward ? static_cast<size_t>(n_slots) : plan.forward.size();
  const size_t soa_size = max_slots * 2 * W;
  if (s.arrival.size() < soa_size) {
    s.arrival.resize(soa_size);
    s.slew.resize(soa_size);
    s.valid.resize(soa_size);
    s.pred.resize(soa_size);
    s.pred_rf.resize(soa_size);
  }
  if (walk_backward && s.required.size() < soa_size) {
    s.required.resize(soa_size);
  }
  const auto off = [&s](int v, int rf) -> size_t {
    return (static_cast<size_t>(s.slot[static_cast<size_t>(v)]) * 2 +
            static_cast<size_t>(rf)) *
           static_cast<size_t>(W);
  };

  // --- forward reset: reset_vertex() semantics, lane-uniform ---------
  // Arrival-side fields only: required times live in the backward slots.
  const auto reset_lanes = [&](int v) {
    const InputConstraint* ic =
        static_cast<size_t>(v) < input_constraints_.size()
            ? input_constraints_[static_cast<size_t>(v)].data()
            : nullptr;
    for (int rf = 0; rf < 2; ++rf) {
      const bool set = ic != nullptr && ic[rf].set;
      const double arr = set ? ic[rf].arrival : -kInf;
      const double slw = set ? ic[rf].slew : 0.0;
      const double val = set ? 1.0 : 0.0;
      const size_t o = off(v, rf);
      for (int j = 0; j < W; ++j) {
        s.arrival[o + static_cast<size_t>(j)] = arr;
        s.slew[o + static_cast<size_t>(j)] = slw;
        s.valid[o + static_cast<size_t>(j)] = val;
        s.pred[o + static_cast<size_t>(j)] = -1.0;
        s.pred_rf[o + static_cast<size_t>(j)] = 0.0;  // RiseFall::kRise
      }
    }
  };

  // --- lane readers ---------------------------------------------------
  // Arrival-side state of (v, rf): SoA lanes when v changed in this
  // block, otherwise the baseline value broadcast to every lane (an
  // unchanged vertex holds its baseline value in every real lane).
  // Everything stays in registers — only the (rare) noisy-edge scalar
  // fits spill lanes to buffers.
  struct Src {
    D arr;
    D slw;
    D val_d;  ///< valid as 1.0/0.0 doubles (SoA encoding)
    M val;
    bool any;
  };
  const auto read_fwd = [&](int v, int rf) -> Src {
    Src r;
    if (s.fwd_stamp[static_cast<size_t>(v)] == epoch) {
      const size_t o = off(v, rf);
      r.arr = L::load(s.arrival.data() + o);
      r.slw = L::load(s.slew.data() + o);
      r.val_d = L::load(s.valid.data() + o);
    } else {
      const auto& t =
          baseline[static_cast<size_t>(v)].timing[static_cast<size_t>(rf)];
      r.arr = L::broadcast(t.arrival);
      r.slw = L::broadcast(t.slew);
      r.val_d = L::broadcast(t.valid ? 1.0 : 0.0);
    }
    r.val = L::gt(r.val_d, zero);
    r.any = L::any(r.val);
    return r;
  };

  // --- relax(): masked max-update of (to, to_rf) ----------------------
  // scalar: if (!t.valid || arrival > t.arrival) commit.
  const auto relax_lanes = [&](int to, int to_rf, D cand_arr, D cand_slw,
                               M upd_in, int from, int from_rf) {
    const size_t o = off(to, to_rf);
    const D cur_arr = L::load(s.arrival.data() + o);
    const D cur_val_d = L::load(s.valid.data() + o);
    const M cur_val = L::gt(cur_val_d, zero);
    const M upd = L::mask_and(
        upd_in, L::mask_or(L::mask_not(cur_val), L::gt(cand_arr, cur_arr)));
    if (!L::any(upd)) return;
    L::store(s.arrival.data() + o, L::select(upd, cand_arr, cur_arr));
    const D cur_slw = L::load(s.slew.data() + o);
    L::store(s.slew.data() + o, L::select(upd, cand_slw, cur_slw));
    L::store(s.valid.data() + o, L::select(upd, one, cur_val_d));
    const D cur_pred = L::load(s.pred.data() + o);
    L::store(s.pred.data() + o,
             L::select(upd, L::broadcast(static_cast<double>(from)), cur_pred));
    const D cur_prf = L::load(s.pred_rf.data() + o);
    L::store(
        s.pred_rf.data() + o,
        L::select(upd, L::broadcast(static_cast<double>(from_rf)), cur_prf));
  };

  // --- NldmTable::lookup with lane-varying x1, lane-uniform x2 --------
  // locate() on the slew axis runs scalar per lane (tiny axes), the
  // interpolation itself is vector math with the exact scalar op
  // sequence (sub/div for frac, sub/mul/add per lerp stage).  Every
  // memory access is an adjacent (lo, lo+1) pair — axis endpoints and
  // value-row neighbours — so `load_pair` covers all of them with
  // contiguous loads instead of gathers.
  // Lane-varying position on a table's slew axis: segment index per
  // lane plus the interpolation fraction vector.  Computed once per
  // (axis, x) and shared between the delay and transition tables of an
  // arc when both use the same axis values (the overwhelmingly common
  // liberty shape).
  struct Loc1 {
    int32_t lo1[W];
    D f1;
    bool single;  ///< axis has one entry: no interpolation on x1
  };
  const auto locate_lanes = [&](const std::vector<double>& a1,
                                const D x) -> Loc1 {
    Loc1 r;
    r.f1 = zero;
    r.single = a1.size() == 1;
    if (r.single) {
      for (int j = 0; j < W; ++j) r.lo1[j] = 0;
      return r;
    }
    // Branchless lane-parallel locate().  upper_bound(a1, x) returns
    // the first index k with x < a1[k]; on a sorted axis that index
    // equals the count of elements with !(x < a1[k]) — the same
    // comparator, so the equivalence holds for every input including
    // NaN (all compares false -> count n -> clamped to n-1, exactly
    // what upper_bound + clamp produce).  Axes are tiny (<= 8), so
    // counting beats four data-dependent binary searches.
    D cnt = zero;
    for (size_t k = 0; k < a1.size(); ++k) {
      cnt = L::add(cnt, L::select(L::lt(x, L::broadcast(a1[k])), zero, one));
    }
    // hi = clamp(count, 1, n-1); counts are small integers, exact in
    // double, so min/max on doubles reproduces the size_t clamp.
    const D hi = L::max(
        L::min(cnt, L::broadcast(static_cast<double>(a1.size() - 1))), one);
    double hi_buf[W];
    L::store(hi_buf, hi);
    for (int j = 0; j < W; ++j) {
      r.lo1[j] = static_cast<int32_t>(hi_buf[j]) - 1;
    }
    D alo, ahi;
    L::load_pair(a1.data(), r.lo1, alo, ahi);
    r.f1 = L::div(L::sub(x, alo), L::sub(ahi, alo));
    return r;
  };
  const auto table_lookup_at = [&](const liberty::NldmTable& tb,
                                   const Loc1& l1, double x2) -> D {
    util::require(!tb.empty(), "lookup on empty NLDM table");
    const auto& a2 = tb.index_2();
    const double* vals = tb.values().data();
    if (a2.empty()) {
      if (l1.single) return L::broadcast(vals[0]);
      D v0, v1;
      L::load_pair(vals, l1.lo1, v0, v1);
      return L::add(v0, L::mul(l1.f1, L::sub(v1, v0)));
    }
    const liberty::AxisSegment s2 = liberty::locate(a2, x2);
    const size_t cols = a2.size();
    if (l1.single && cols == 1) return L::broadcast(vals[0]);
    if (l1.single) {
      // Lane-uniform: the scalar expression, broadcast.
      return L::broadcast(vals[s2.lo] +
                          s2.frac * (vals[s2.lo + 1] - vals[s2.lo]));
    }
    if (cols == 1) {
      D v0, v1;
      L::load_pair(vals, l1.lo1, v0, v1);
      return L::add(v0, L::mul(l1.f1, L::sub(v1, v0)));
    }
    // Bilinear: rows lo1 and lo1+1, columns (s2.lo, s2.lo+1).  Both
    // column pairs are adjacent, so two pair loads (row 0 at i00, row 1
    // at i00 shifted one row) replace four gathers.
    int32_t i00[W];
    const int32_t icols = static_cast<int32_t>(cols);
    for (int j = 0; j < W; ++j) {
      i00[j] = l1.lo1[j] * icols + static_cast<int32_t>(s2.lo);
    }
    D v00, v01, v10, v11;
    L::load_pair(vals, i00, v00, v01);
    L::load_pair(vals + icols, i00, v10, v11);
    const D f2 = L::broadcast(s2.frac);
    const D va = L::add(v00, L::mul(f2, L::sub(v01, v00)));
    const D vb = L::add(v10, L::mul(f2, L::sub(v11, v10)));
    return L::add(va, L::mul(l1.f1, L::sub(vb, va)));
  };
  const auto table_lookup = [&](const liberty::NldmTable& tb, const D x,
                                double x2) -> D {
    return table_lookup_at(tb, locate_lanes(tb.index_1(), x), x2);
  };

  // --- forward fold ---------------------------------------------------
  double slw_buf[W];
  double val_buf[W];
  double arr_buf[W];

  const auto fold_cell = [&](const CellArcEdge& e) {
    const double load = net_loads_[static_cast<size_t>(e.out_net)];
    for (int rf_i = 0; rf_i < 2; ++rf_i) {
      const Src in = read_fwd(e.from, rf_i);
      if (!in.any) continue;  // every lane skips, like the scalar guard
      const auto in_rf = static_cast<RiseFall>(rf_i);
      RiseFall out_rfs[2];
      int out_count = 0;
      switch (e.arc->sense) {
        case liberty::TimingSense::kPositiveUnate:
          out_rfs[out_count++] = in_rf;
          break;
        case liberty::TimingSense::kNegativeUnate:
          out_rfs[out_count++] = flip(in_rf);
          break;
        case liberty::TimingSense::kNonUnate:
          out_rfs[out_count++] = RiseFall::kRise;
          out_rfs[out_count++] = RiseFall::kFall;
          break;
      }
      for (int i = 0; i < out_count; ++i) {
        const auto out_rf = out_rfs[i];
        // TimingArc::rise()/fall() preconditions, verbatim.
        if (out_rf == RiseFall::kRise) {
          util::require(!e.arc->cell_rise.empty(), "arc from ",
                        e.arc->related_pin, " has no cell_rise table");
        } else {
          util::require(!e.arc->cell_fall.empty(), "arc from ",
                        e.arc->related_pin, " has no cell_fall table");
        }
        const auto& delay_tb = out_rf == RiseFall::kRise ? e.arc->cell_rise
                                                         : e.arc->cell_fall;
        const auto& slew_tb = out_rf == RiseFall::kRise
                                  ? e.arc->rise_transition
                                  : e.arc->fall_transition;
        // Delay and transition tables of one arc almost always index the
        // same slew axis; locate once and interpolate twice.  The locate
        // is a pure function of (axis values, x), so sharing it is exact.
        const Loc1 dloc = locate_lanes(delay_tb.index_1(), in.slw);
        const D delay = table_lookup_at(delay_tb, dloc, load);
        const D out_slew =
            !slew_tb.empty() && slew_tb.index_1() == delay_tb.index_1()
                ? table_lookup_at(slew_tb, dloc, load)
                : table_lookup(slew_tb, in.slw, load);
        const D cand_arr = L::add(in.arr, L::mul(delay, v_delay_scale));
        const D cand_slw = L::mul(out_slew, v_slew_scale);
        relax_lanes(e.to, static_cast<int>(out_rf), cand_arr, cand_slw,
                    in.val, e.from, rf_i);
      }
    }
  };

  const auto fold_net = [&](size_t edge_index) {
    const auto& e = net_edges_[edge_index];
    const double wire_delay =
        net_parasitics_[static_cast<size_t>(e.net)].second;
    const double wd = wire_delay * wire_scale;
    // Annotation pointers are per lane — each scenario has its own
    // compiled edge table.
    const NoiseAnnotation* noisy[W];
    bool any_noisy = false;
    for (int j = 0; j < W; ++j) {
      noisy[j] = ctx[static_cast<size_t>(j)].edge_noise != nullptr
                     ? ctx[static_cast<size_t>(j)].edge_noise[edge_index]
                     : nullptr;
      if (static_cast<size_t>(j) < n_real && noisy[j] != nullptr) {
        any_noisy = true;
      }
    }
    for (int rf_i = 0; rf_i < 2; ++rf_i) {
      const Src drv = read_fwd(e.from, rf_i);
      if (!drv.any) continue;
      D arr = L::add(drv.arr, L::broadcast(wd));
      D slw = drv.slw;
      if (any_noisy) {
        // Γeff replacement is scalar per lane through the shared
        // noisy_fit(); invalid lanes are skipped exactly like the
        // scalar path, pad lanes are skipped because their results are
        // discarded.  Only this rare branch spills lanes to buffers.
        L::store(arr_buf, arr);
        L::store(slw_buf, slw);
        L::store(val_buf, drv.val_d);
        for (size_t j = 0; j < n_real; ++j) {
          if (val_buf[j] == 0.0) continue;
          noisy_fit(e, edge_index, noisy[j], rf_i, ctx[j], arr_buf[j],
                    slw_buf[j]);
        }
        arr = L::load(arr_buf);
        slw = L::load(slw_buf);
      }
      relax_lanes(e.to, rf_i, arr, slw, drv.val, e.from, rf_i);
    }
  };

  // --- value-change-bounded forward walk -----------------------------
  // plan.forward (the annotated nets' fanout cone, in level order) is
  // the structural bound.  A vertex whose fan-in sources are all
  // unchanged and whose net in-edges carry no annotation in any real
  // lane would fold the baseline's inputs in the baseline's order, so
  // it is neither reset nor folded: the readers' baseline fallback
  // already holds its value bitwise.  Engine-level annotations count as
  // annotations here (they are in every lane's table): refolding their
  // edges is exact, just not needed.
  const auto annotated_in_real_lane = [&](size_t edge_index) {
    for (size_t j = 0; j < n_real; ++j) {
      if (ctx[j].edge_noise != nullptr &&
          ctx[j].edge_noise[edge_index] != nullptr) {
        return true;
      }
    }
    return false;
  };
  const auto needs_fold = [&](int v) {
    for (const auto& [is_cell, idx] : in_edges_[static_cast<size_t>(v)]) {
      const int from = is_cell ? cell_edges_[idx].from : net_edges_[idx].from;
      if (s.fwd_stamp[static_cast<size_t>(from)] == epoch) return true;
      if (!is_cell && annotated_in_real_lane(idx)) return true;
    }
    return false;
  };
  // A folded vertex counts as changed when some real lane differs from
  // the baseline in the bit pattern of arrival, slew, valid or a
  // critical-pred field (a bit compare: -0.0 == 0.0 and NaN != NaN
  // would both mislead `==`).  Pad lanes never count.
  const auto changed_vs_baseline = [&](int v) {
    const auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };
    const VertexTiming& b = baseline[static_cast<size_t>(v)];
    for (int rf = 0; rf < 2; ++rf) {
      const auto& t = b.timing[static_cast<size_t>(rf)];
      const uint64_t arr = bits(t.arrival);
      const uint64_t slw = bits(t.slew);
      const uint64_t val = bits(t.valid ? 1.0 : 0.0);
      const uint64_t prd = bits(static_cast<double>(b.critical_pred[rf]));
      const uint64_t prf = bits(
          static_cast<double>(static_cast<int>(b.critical_pred_rf[rf])));
      const size_t o = off(v, rf);
      for (size_t j = 0; j < n_real; ++j) {
        if (bits(s.arrival[o + j]) != arr || bits(s.slew[o + j]) != slw ||
            bits(s.valid[o + j]) != val || bits(s.pred[o + j]) != prd ||
            bits(s.pred_rf[o + j]) != prf) {
          return true;
        }
      }
    }
    return false;
  };

  uint64_t n_folded = 0;
  for (const int v : plan.forward) {
    if (!needs_fold(v)) continue;
    if (!walk_backward) s.slot[static_cast<size_t>(v)] = n_slots++;
    reset_lanes(v);
    for (const auto& [is_cell, idx] : in_edges_[static_cast<size_t>(v)]) {
      if (is_cell) {
        fold_cell(cell_edges_[idx]);
      } else {
        fold_net(idx);
      }
    }
    ++n_folded;
    if (changed_vs_baseline(v)) s.fwd_stamp[static_cast<size_t>(v)] = epoch;
  }
  s.folded += n_folded * n_real;

  // --- materialization ------------------------------------------------
  // Vertex v of real lane jj, as the walk left it: arrival-side fields
  // when v changed, the required time when v has a backward slot; any
  // other field keeps the baseline value already in `vt`.
  const auto write_lane = [&](VertexTiming& vt, int v, size_t jj) {
    const bool fwd = s.fwd_stamp[static_cast<size_t>(v)] == epoch;
    const bool bwd = s.bwd_stamp[static_cast<size_t>(v)] == epoch;
    if (!fwd && !bwd) return;
    for (int rf = 0; rf < 2; ++rf) {
      const size_t o = off(v, rf) + jj;
      auto& t = vt.timing[rf];
      if (fwd) {
        t.arrival = s.arrival[o];
        t.slew = s.slew[o];
        t.valid = s.valid[o] != 0.0;
        vt.critical_pred[rf] = static_cast<int>(s.pred[o]);
        vt.critical_pred_rf[rf] =
            static_cast<RiseFall>(static_cast<int>(s.pred_rf[o]));
      }
      if (bwd) t.required = s.required[o];
    }
  };
  if (!walk_backward) {
    // Endpoint-rows mode: each endpoint row is the baseline row,
    // overwritten from the lanes where the walk left the endpoint
    // vertex changed.
    const size_t n_endpoints = endpoint_ports_.size();
    for (size_t jj = 0; jj < n_real; ++jj) {
      const uint32_t p = block.points[jj];
      for (size_t e = 0; e < n_endpoints; ++e) {
        const int v = endpoint_vertex(e);
        s.rows[e] = (*baselines[p])[static_cast<size_t>(v)];
        write_lane(s.rows[e], v, jj);
      }
      (*out.on_rows)(p, s.rows);
    }
    return;
  }

  // --- backward reset: reset_required() semantics, lane-uniform -------
  for (const int v : plan.backward) {
    const double req = required_of(v);
    for (int rf = 0; rf < 2; ++rf) {
      const size_t o = off(v, rf);
      for (int j = 0; j < W; ++j) s.required[o + static_cast<size_t>(j)] = req;
    }
  }

  // --- backward fold: backward_vertex() semantics ---------------------
  const auto read_req = [&](int v, int rf) -> D {
    if (s.bwd_stamp[static_cast<size_t>(v)] == epoch) {
      return L::load(s.required.data() + off(v, rf));
    }
    return L::broadcast(
        baseline[static_cast<size_t>(v)].timing[static_cast<size_t>(rf)]
            .required);
  };
  struct ToInfo {
    D arr;
    M val;
    D pred;
    D prf;
  };
  const auto read_to = [&](int v, int rf) -> ToInfo {
    if (s.fwd_stamp[static_cast<size_t>(v)] == epoch) {
      const size_t o = off(v, rf);
      return {L::load(s.arrival.data() + o),
              L::gt(L::load(s.valid.data() + o), zero),
              L::load(s.pred.data() + o), L::load(s.pred_rf.data() + o)};
    }
    const auto& vt = baseline[static_cast<size_t>(v)];
    const auto& t = vt.timing[static_cast<size_t>(rf)];
    return {L::broadcast(t.arrival),
            L::gt(L::broadcast(t.valid ? 1.0 : 0.0), zero),
            L::broadcast(static_cast<double>(vt.critical_pred[rf])),
            L::broadcast(static_cast<double>(
                static_cast<int>(vt.critical_pred_rf[rf])))};
  };
  const D pos_inf = L::broadcast(kInf);
  const D neg_inf = L::broadcast(-kInf);

  for (const int v : plan.backward) {
    const D v_id = L::broadcast(static_cast<double>(v));
    for (const auto& [is_cell, idx] : out_edges_[static_cast<size_t>(v)]) {
      const int to = is_cell ? cell_edges_[idx].to : net_edges_[idx].to;
      for (int to_rf = 0; to_rf < 2; ++to_rf) {
        const ToInfo tt = read_to(to, to_rf);
        const D req_to = read_req(to, to_rf);
        // scalar: if (!tt.valid || !isfinite(tt.required)) continue;
        //         if (vt.critical_pred[to_rf] != v) continue;
        M cond0 = L::mask_and(
            tt.val, L::mask_and(L::lt(req_to, pos_inf),
                                L::gt(req_to, neg_inf)));
        cond0 = L::mask_and(cond0, L::eq(tt.pred, v_id));
        if (!L::any(cond0)) continue;
        // from_rf is per lane: handle each candidate source transition
        // under its lane mask (masks are disjoint — exactly one
        // applies per lane, so ordering across from_rf is immaterial).
        for (int from_rf = 0; from_rf < 2; ++from_rf) {
          const M m_rf = L::mask_and(
              cond0,
              L::eq(tt.prf, L::broadcast(static_cast<double>(from_rf))));
          if (!L::any(m_rf)) continue;
          const Src ft = read_fwd(v, from_rf);
          const M cond = L::mask_and(m_rf, ft.val);
          if (!L::any(cond)) continue;
          const size_t o = off(v, from_rf);
          const D cur_req = L::load(s.required.data() + o);
          const D edge_delay = L::sub(tt.arr, ft.arr);
          const D cand = L::sub(req_to, edge_delay);
          // scalar: ft.required = std::min(ft.required, cand)
          const D folded = L::min(cur_req, cand);
          L::store(s.required.data() + o, L::select(cond, folded, cur_req));
        }
      }
    }
  }

  // States mode: baseline copy + overwrite per real lane, iterated in
  // ascending vertex id (backward_ids/forward_ids) so the output writes
  // stream in address order; the id lists fall back to the
  // level-ordered ones for hand-built plans that left them empty.  The
  // backward set holds every changed vertex of a well-formed plan; the
  // forward pass covers plans whose backward set misses some.
  const std::vector<int>& fwd_ids =
      plan.forward_ids.size() == plan.forward.size() ? plan.forward_ids
                                                     : plan.forward;
  const std::vector<int>& bwd_ids =
      plan.backward_ids.size() == plan.backward.size() ? plan.backward_ids
                                                       : plan.backward;
  for (size_t jj = 0; jj < n_real; ++jj) {
    const uint32_t p = block.points[jj];
    TimingState& state = out.states[p];
    state = *baselines[p];
    for (const int v : bwd_ids) {
      write_lane(state[static_cast<size_t>(v)], v, jj);
    }
    for (const int v : fwd_ids) {
      if (s.bwd_stamp[static_cast<size_t>(v)] == epoch) continue;
      write_lane(state[static_cast<size_t>(v)], v, jj);
    }
  }
}

#if defined(WAVELETIC_HAVE_AVX2)
// The W=4 instantiation lives in engine_lanes_avx2.cpp (compiled with
// -mavx2); baseline-ISA TUs must not instantiate it.
extern template void StaEngine::evaluate_delta_block<4>(
    const LaneBlock& block, LaneOutput out,
    std::span<const EvalContext> contexts,
    std::span<const TimingState* const> baselines, wave::Workspace* workspace,
    LaneScratch& s) const;
#endif

}  // namespace waveletic::sta
