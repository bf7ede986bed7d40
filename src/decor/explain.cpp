#include "decor/explain.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "net/messages.hpp"
#include "sim/trace_export.hpp"

namespace decor::core {

namespace {

using common::JsonValue;

double num_at(const JsonValue& obj, std::string_view key, double def = 0.0) {
  const auto* v = obj.find(key);
  return v != nullptr ? v->as_number(def) : def;
}

std::uint64_t u64_at(const JsonValue& obj, std::string_view key) {
  return static_cast<std::uint64_t>(num_at(obj, key));
}

std::string str_at(const JsonValue& obj, std::string_view key) {
  const auto* v = obj.find(key);
  return v != nullptr ? v->as_string() : std::string();
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t n = v.size();
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(n / 2);
  std::nth_element(v.begin(), mid, v.end());
  // For even n the lower middle is the largest element left of `mid`.
  return n % 2 == 1 ? *mid : 0.5 * (*std::max_element(v.begin(), mid) + *mid);
}

/// Lebesgue measure of the union of [lo, hi] intervals.
double union_measure(std::vector<std::pair<double, double>> ivals) {
  std::sort(ivals.begin(), ivals.end());
  double total = 0.0;
  double cur_lo = 0.0, cur_hi = -1.0;
  bool open = false;
  for (const auto& [lo, hi] : ivals) {
    if (hi <= lo) continue;
    if (!open || lo > cur_hi) {
      if (open) total += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

/// Everything the trace pass accumulates for one causality id.
struct SpanAgg {
  double first_t = 0.0;
  double last_t = 0.0;
  std::uint32_t origin = 0;
  bool have_origin = false;
  bool started = false;
  /// Last tx time per transmitting node (the rx side joins against the
  /// sender's most recent send to measure per-link latency). Few nodes
  /// transmit within one exchange, so a flat list beats a tree.
  std::vector<std::pair<std::uint32_t, double>> last_tx;

  void note_tx(std::uint32_t node, double t) {
    for (auto& [n, last] : last_tx) {
      if (n == node) {
        last = t;
        return;
      }
    }
    last_tx.emplace_back(node, t);
  }
  const double* last_tx_of(std::uint32_t node) const {
    for (const auto& [n, last] : last_tx) {
      if (n == node) return &last;
    }
    return nullptr;
  }
};

struct NodeAgg {
  std::uint64_t tx = 0;
  std::uint64_t retx = 0;
  std::uint64_t drops = 0;
  std::uint64_t dead_peers = 0;
  std::uint64_t origin_sends = 0;
  std::vector<double> exchange_latencies;
};

struct LinkAgg {
  std::uint64_t delivered = 0;
  std::uint64_t crc_drops = 0;
  std::vector<double> latencies;
};

}  // namespace

ExplainDoc analyze_run(const std::vector<Artifact>& artifacts,
                       const ExplainOptions& opts) {
  ExplainDoc doc;
  const Artifact* timeline = nullptr;
  const Artifact* field = nullptr;
  const Artifact* audit = nullptr;
  const Artifact* trace = nullptr;
  for (const auto& a : artifacts) {
    if (a.kind == "timeline" && timeline == nullptr) timeline = &a;
    if (a.kind == "field" && field == nullptr) field = &a;
    if (a.kind == "audit" && audit == nullptr) audit = &a;
    if (a.kind == "trace" && trace == nullptr) trace = &a;
  }

  // --- convergence instant and sampling cadence --------------------------
  double max_t = 0.0;
  if (timeline != nullptr) {
    doc.timeline_samples = timeline->records.size();
    std::vector<double> diffs;
    double prev_t = 0.0;
    bool have_prev = false;
    for (const auto& s : timeline->records) {
      const double t = num_at(s, "t");
      max_t = std::max(max_t, t);
      if (have_prev && t > prev_t) diffs.push_back(t - prev_t);
      prev_t = t;
      have_prev = true;
      if (doc.convergence_time < 0.0 && num_at(s, "uncovered", 1.0) == 0.0) {
        doc.convergence_time = t;
        doc.converged = true;
      }
    }
    doc.sample_cadence = median_of(std::move(diffs));
  } else {
    doc.warnings.push_back("no decor.timeline.v1 artifact");
  }
  const TraceIndex* index = trace != nullptr ? &trace->trace : nullptr;
  if (index != nullptr) {
    doc.trace_records = index->size();
    for (const auto& r : index->records()) {
      max_t = std::max(max_t, r.t);
      if (!doc.converged && r.kind == TraceRecordKind::kProtocol &&
          index->detail(r) == "converged") {
        doc.convergence_time = r.t;
        doc.converged = true;
      }
    }
  } else {
    doc.warnings.push_back("no trace artifact");
  }
  if (!doc.converged) {
    doc.warnings.push_back(
        "run never converged within the artifacts; phases attributed over "
        "the observed horizon");
  }
  // The attribution horizon: the convergence instant, or everything the
  // artifacts observed when the run never converged.
  const double horizon = doc.converged ? doc.convergence_time : max_t;

  // --- closing placement (audit walk) ------------------------------------
  std::uint64_t audits_without_trace_id = 0;
  double first_audit_t = -1.0;
  if (audit != nullptr && !audit->records.empty()) {
    doc.audit_records = audit->records.size();
    const JsonValue* sat = nullptr;   // latest with newly_satisfied > 0
    const JsonValue* last = nullptr;  // latest before the horizon at all
    for (const auto& r : audit->records) {
      const double t = num_at(r, "t");
      if (first_audit_t < 0.0) first_audit_t = t;
      if (u64_at(r, "trace_id") == 0) ++audits_without_trace_id;
      if (t > horizon + doc.sample_cadence) continue;
      last = &r;  // file order is time order: keep the latest
      if (u64_at(r, "newly_satisfied") > 0) sat = &r;
    }
    // Prefer the newly-satisfied key, but only while the audit trail
    // keeps recording it: seed bootstraps log newly_satisfied=0 even
    // when they close the final hole, so a satisfied-keyed pick that
    // predates the last pre-horizon decision by more than one cadence
    // is stale — coverage was still open after it fired.
    const JsonValue* closing = sat;
    if (closing != nullptr && last != nullptr &&
        num_at(*closing, "t") + doc.sample_cadence < num_at(*last, "t")) {
      doc.warnings.push_back(
          "audit trail stops recording newly-satisfied points before "
          "convergence; using the last pre-convergence decision");
      closing = last;
    }
    if (closing == nullptr) {
      if (last != nullptr) {
        doc.warnings.push_back(
            "no audit record newly satisfied points; using the last "
            "pre-convergence decision");
        closing = last;
      } else {
        doc.warnings.push_back(
            "no audit record newly satisfied points; using the last "
            "decision");
        closing = &audit->records.back();
      }
    }
    doc.closing_placement.present = true;
    doc.closing_placement.t = num_at(*closing, "t");
    doc.closing_placement.actor =
        static_cast<std::uint32_t>(num_at(*closing, "actor"));
    doc.closing_placement.reason = str_at(*closing, "reason");
    doc.closing_placement.x = num_at(*closing, "x");
    doc.closing_placement.y = num_at(*closing, "y");
    doc.closing_placement.benefit = num_at(*closing, "benefit");
    doc.closing_placement.newly_satisfied = u64_at(*closing, "newly_satisfied");
    doc.closing_placement.trace_id = u64_at(*closing, "trace_id");
  } else {
    doc.warnings.push_back("no decor.audit.v1 artifact");
  }
  if (audits_without_trace_id > 0) {
    doc.warnings.push_back(std::to_string(audits_without_trace_id) +
                           " audit record" +
                           (audits_without_trace_id == 1 ? "" : "s") +
                           " carry no causality id");
  }

  // --- last hole to close (field walk) ------------------------------------
  if (field != nullptr && !field->records.empty()) {
    const JsonValue* last_open = nullptr;
    for (const auto& s : field->records) {
      if (num_at(s, "t") > horizon + doc.sample_cadence) break;
      if (num_at(s, "uncovered") > 0.0) last_open = &s;
    }
    const auto* holes =
        last_open != nullptr ? last_open->find("holes") : nullptr;
    if (holes != nullptr && !holes->items().empty()) {
      // The hole the closing placement filled: nearest centroid to the
      // placement position (first hole when no placement is known —
      // hole extraction order is deterministic).
      const JsonValue* best = &holes->items().front();
      if (doc.closing_placement.present) {
        double best_d = 0.0;
        bool first = true;
        for (const auto& h : holes->items()) {
          const double dx = num_at(h, "cx") - doc.closing_placement.x;
          const double dy = num_at(h, "cy") - doc.closing_placement.y;
          const double d2 = dx * dx + dy * dy;
          if (first || d2 < best_d) {
            best_d = d2;
            best = &h;
            first = false;
          }
        }
      }
      doc.last_hole.present = true;
      doc.last_hole.t = num_at(*last_open, "t");
      doc.last_hole.points = u64_at(*best, "points");
      doc.last_hole.area = num_at(*best, "area");
      doc.last_hole.cx = num_at(*best, "cx");
      doc.last_hole.cy = num_at(*best, "cy");
      doc.last_hole.max_deficit =
          static_cast<std::uint32_t>(num_at(*best, "max_deficit"));
    } else if (last_open != nullptr) {
      doc.warnings.push_back(
          "last uncovered field snapshot records no hole inventory");
    } else {
      doc.warnings.push_back("field snapshots never show an open hole");
    }
  } else {
    doc.warnings.push_back("no decor.field.v1 artifact");
  }

  // --- trace pass: spans, node stats, link stats --------------------------
  // Hashed, not ordered: every result drawn from these is a median or a
  // list sorted under a total order below, so iteration order never
  // reaches the output.
  std::unordered_map<std::uint64_t, SpanAgg> spans;
  std::unordered_map<std::uint32_t, NodeAgg> nodes;
  std::unordered_map<std::uint64_t, LinkAgg> links;  // key: src << 32 | dst
  const auto link_key = [](std::int64_t from, std::uint32_t to) {
    return static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 32 |
           to;
  };
  if (index != nullptr) {
    for (const auto& r : index->records()) {
      const double t = r.t;
      const std::uint32_t node = r.node;
      const std::string_view detail = index->detail(r);
      if (r.kind == TraceRecordKind::kProtocol) {
        if (detail.starts_with("dead-peer=")) ++nodes[node].dead_peers;
        continue;
      }
      const std::uint64_t tid = r.trace;
      SpanAgg* span = nullptr;
      if (tid != 0) {
        span = &spans[tid];
        if (!span->started) {
          span->started = true;
          span->first_t = t;
          span->last_t = t;
        }
        span->last_t = std::max(span->last_t, t);
      }
      if (r.kind == TraceRecordKind::kTx) {
        ++nodes[node].tx;
        if (span != nullptr) {
          if (!span->have_origin) {
            span->have_origin = true;
            span->origin = node;
            ++nodes[node].origin_sends;
          } else if (node == span->origin &&
                     sim::parse_detail_kind(detail) != net::kAck) {
            ++nodes[node].retx;
          }
          span->note_tx(node, t);
        }
      } else if (r.kind == TraceRecordKind::kRx) {
        const std::int64_t from = parse_detail_from(detail);
        if (from >= 0) {
          auto& link = links[link_key(from, node)];
          ++link.delivered;
          if (span != nullptr) {
            const double* sent =
                span->last_tx_of(static_cast<std::uint32_t>(from));
            if (sent != nullptr && t >= *sent) {
              link.latencies.push_back(t - *sent);
            }
          }
        }
      } else if (r.kind == TraceRecordKind::kDrop) {
        ++nodes[node].drops;
        if (detail.starts_with("crc")) {
          const std::int64_t from = parse_detail_from(detail);
          if (from >= 0) {
            ++links[link_key(from, node)].crc_drops;
          }
        }
      }
    }
  }

  // --- phase attribution ---------------------------------------------------
  std::uint64_t audited_missing_trace = 0;
  if (horizon > 0.0) {
    if (first_audit_t < 0.0) {
      // Nothing was ever decided: the whole horizon is detection (or,
      // for never-converged runs, undiagnosed waiting).
      doc.detection = horizon;
    } else {
      doc.detection = std::min(first_audit_t, horizon);
      std::vector<std::pair<double, double>> in_flight;
      if (audit != nullptr) {
        for (const auto& r : audit->records) {
          const auto tid = u64_at(r, "trace_id");
          if (tid == 0) continue;
          const auto it = spans.find(tid);
          if (it == spans.end()) {
            ++audited_missing_trace;
            continue;
          }
          ++doc.audited_exchanges;
          const double lo = std::max(it->second.first_t, doc.detection);
          const double hi = std::min(it->second.last_t, horizon);
          if (hi > lo) in_flight.emplace_back(lo, hi);
        }
      }
      doc.propagation = union_measure(std::move(in_flight));
      doc.decision =
          std::max(0.0, horizon - doc.detection - doc.propagation);
    }
  }
  if (audited_missing_trace > 0) {
    doc.warnings.push_back(
        std::to_string(audited_missing_trace) + " audited placement" +
        (audited_missing_trace == 1 ? "" : "s") +
        " have no trace records (ring truncated or tracing disabled)");
  }

  // --- the critical exchange ----------------------------------------------
  if (doc.closing_placement.present) {
    if (doc.closing_placement.trace_id == 0) {
      doc.warnings.push_back(
          "closing placement carries no causality id (trace_id=0)");
    } else if (index == nullptr) {
      // Already warned about the missing trace artifact.
    } else {
      auto& ex = doc.exchange;
      ex.trace_id = doc.closing_placement.trace_id;
      bool have_origin = false;
      std::uint32_t origin = 0;
      double last_retx_t = 0.0;
      for (const auto& r : index->records()) {
        if (r.trace != ex.trace_id) continue;
        const double t = r.t;
        const std::uint32_t node = r.node;
        const std::string_view detail = index->detail(r);
        if (!ex.present) {
          ex.present = true;
          ex.first_t = t;
          ex.last_t = t;
        }
        ex.last_t = std::max(ex.last_t, t);
        ExplainLeg leg;
        leg.t = t;
        leg.dt = t - ex.first_t;
        leg.node = node;
        if (r.kind == TraceRecordKind::kTx) {
          const bool is_ack = sim::parse_detail_kind(detail) == net::kAck;
          if (!have_origin) {
            have_origin = true;
            origin = node;
            leg.leg = "send";
          } else if (is_ack) {
            leg.leg = "ack";
            ex.completed = true;
          } else if (node == origin) {
            leg.leg = "retransmit";
            ++ex.retransmits;
            last_retx_t = t;
          } else {
            leg.leg = "forward";
          }
        } else if (r.kind == TraceRecordKind::kRx) {
          leg.leg = sim::parse_detail_kind(detail) == net::kAck ? "ack-rx"
                                                                : "rx";
          leg.from = parse_detail_from(detail);
          if (leg.leg == "ack-rx") ex.completed = true;
        } else if (r.kind == TraceRecordKind::kDrop) {
          leg.leg = "drop";
          leg.from = parse_detail_from(detail);
        } else {
          continue;
        }
        ex.legs.push_back(std::move(leg));
      }
      ex.origin = origin;
      if (ex.retransmits > 0) ex.retx_delay = last_retx_t - ex.first_t;
      if (!ex.present) {
        doc.warnings.push_back(
            "closing placement exchange not in the trace (ring truncated?)");
      } else if (!ex.completed) {
        doc.warnings.push_back(
            "closing placement exchange never completed (no ack leg)");
      }
    }
  }

  // --- health scores -------------------------------------------------------
  {
    std::vector<double> fleet_ex;
    for (auto& [tid, s] : spans) {
      if (!s.have_origin) continue;
      const double d = s.last_t - s.first_t;
      nodes[s.origin].exchange_latencies.push_back(d);
      fleet_ex.push_back(d);
    }
    doc.fleet_median_exchange_latency = median_of(std::move(fleet_ex));
    std::vector<double> fleet_link;
    for (const auto& [key, l] : links) {
      fleet_link.insert(fleet_link.end(), l.latencies.begin(),
                        l.latencies.end());
    }
    doc.fleet_median_link_latency = median_of(std::move(fleet_link));

    for (auto& [id, n] : nodes) {
      ExplainNodeHealth h;
      h.node = id;
      h.tx = n.tx;
      h.retx = n.retx;
      h.drops = n.drops;
      h.dead_peer_events = n.dead_peers;
      h.retx_ratio = static_cast<double>(n.retx) /
                     static_cast<double>(std::max<std::uint64_t>(
                         n.origin_sends, 1));
      const double med = median_of(std::move(n.exchange_latencies));
      h.latency_inflation = doc.fleet_median_exchange_latency > 0.0
                                ? med / doc.fleet_median_exchange_latency
                                : 0.0;
      // Worst-offender score: every term is a "how much worse than a
      // healthy node" excess — retransmissions per originating send,
      // latency beyond the fleet median, and dead-peer declarations.
      h.score = h.retx_ratio + std::max(0.0, h.latency_inflation - 1.0) +
                0.5 * static_cast<double>(h.dead_peer_events);
      doc.nodes.push_back(h);
    }
    std::sort(doc.nodes.begin(), doc.nodes.end(),
              [](const ExplainNodeHealth& a, const ExplainNodeHealth& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.node < b.node;
              });
    if (doc.nodes.size() > opts.top_n) doc.nodes.resize(opts.top_n);

    for (auto& [key, l] : links) {
      ExplainLinkHealth h;
      h.src = static_cast<std::uint32_t>(key >> 32);
      h.dst = static_cast<std::uint32_t>(key);
      h.delivered = l.delivered;
      h.crc_drops = l.crc_drops;
      h.median_latency = median_of(std::move(l.latencies));
      h.latency_inflation = doc.fleet_median_link_latency > 0.0
                                ? h.median_latency /
                                      doc.fleet_median_link_latency
                                : 0.0;
      h.score = std::max(0.0, h.latency_inflation - 1.0) +
                0.25 * static_cast<double>(h.crc_drops);
      doc.links.push_back(h);
    }
    std::sort(doc.links.begin(), doc.links.end(),
              [](const ExplainLinkHealth& a, const ExplainLinkHealth& b) {
                if (a.score != b.score) return a.score > b.score;
                if (a.src != b.src) return a.src < b.src;
                return a.dst < b.dst;
              });
    if (doc.links.size() > opts.top_n) doc.links.resize(opts.top_n);
  }
  return doc;
}

ExplainDoc explain_run_dir(const std::string& dir,
                           const ExplainOptions& opts) {
  return analyze_run(load_run_artifacts(dir, "explain"), opts);
}

// --- serialization ---------------------------------------------------------

namespace {

void write_hole(common::JsonWriter& w, const ExplainHole& h) {
  if (!h.present) {
    w.null_value();
    return;
  }
  w.begin_object();
  w.key("t");
  w.value(h.t);
  w.key("points");
  w.value(h.points);
  w.key("area");
  w.value(h.area);
  w.key("cx");
  w.value(h.cx);
  w.key("cy");
  w.value(h.cy);
  w.key("max_deficit");
  w.value(static_cast<std::uint64_t>(h.max_deficit));
  w.end_object();
}

void write_placement(common::JsonWriter& w, const ExplainPlacement& p) {
  if (!p.present) {
    w.null_value();
    return;
  }
  w.begin_object();
  w.key("t");
  w.value(p.t);
  w.key("actor");
  w.value(static_cast<std::uint64_t>(p.actor));
  w.key("reason");
  w.value(p.reason);
  w.key("x");
  w.value(p.x);
  w.key("y");
  w.value(p.y);
  w.key("benefit");
  w.value(p.benefit);
  w.key("newly_satisfied");
  w.value(p.newly_satisfied);
  w.key("trace_id");
  w.value(p.trace_id);
  w.end_object();
}

void write_exchange(common::JsonWriter& w, const ExplainExchange& e) {
  if (!e.present) {
    w.null_value();
    return;
  }
  w.begin_object();
  w.key("trace_id");
  w.value(e.trace_id);
  w.key("origin");
  w.value(static_cast<std::uint64_t>(e.origin));
  w.key("first_t");
  w.value(e.first_t);
  w.key("last_t");
  w.value(e.last_t);
  w.key("latency");
  w.value(e.last_t - e.first_t);
  w.key("retransmits");
  w.value(e.retransmits);
  w.key("retx_delay");
  w.value(e.retx_delay);
  w.key("completed");
  w.value(e.completed);
  w.key("legs");
  w.begin_array();
  for (const auto& leg : e.legs) {
    w.begin_object();
    w.key("t");
    w.value(leg.t);
    w.key("dt");
    w.value(leg.dt);
    w.key("leg");
    w.value(leg.leg);
    w.key("node");
    w.value(static_cast<std::uint64_t>(leg.node));
    if (leg.from >= 0) {
      w.key("from");
      w.value(static_cast<std::uint64_t>(leg.from));
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace

std::string explain_to_json(const ExplainDoc& doc) {
  std::ostringstream os;
  common::JsonWriter w(os);
  w.begin_object();
  w.key("schema");
  w.value("decor.explain.v1");
  w.key("converged");
  w.value(doc.converged);
  w.key("convergence_time");
  w.value(doc.convergence_time);
  w.key("sample_cadence");
  w.value(doc.sample_cadence);
  w.key("phases");
  w.begin_object();
  w.key("detection");
  w.value(doc.detection);
  w.key("decision");
  w.value(doc.decision);
  w.key("propagation");
  w.value(doc.propagation);
  w.key("total");
  w.value(doc.detection + doc.decision + doc.propagation);
  w.end_object();
  w.key("critical_path");
  w.begin_object();
  w.key("last_hole");
  write_hole(w, doc.last_hole);
  w.key("closing_placement");
  write_placement(w, doc.closing_placement);
  w.key("exchange");
  write_exchange(w, doc.exchange);
  w.end_object();
  w.key("health");
  w.begin_object();
  w.key("fleet_median_exchange_latency");
  w.value(doc.fleet_median_exchange_latency);
  w.key("fleet_median_link_latency");
  w.value(doc.fleet_median_link_latency);
  w.key("nodes");
  w.begin_array();
  for (const auto& n : doc.nodes) {
    w.begin_object();
    w.key("node");
    w.value(static_cast<std::uint64_t>(n.node));
    w.key("tx");
    w.value(n.tx);
    w.key("retx");
    w.value(n.retx);
    w.key("drops");
    w.value(n.drops);
    w.key("dead_peer_events");
    w.value(n.dead_peer_events);
    w.key("retx_ratio");
    w.value(n.retx_ratio);
    w.key("latency_inflation");
    w.value(n.latency_inflation);
    w.key("score");
    w.value(n.score);
    w.end_object();
  }
  w.end_array();
  w.key("links");
  w.begin_array();
  for (const auto& l : doc.links) {
    w.begin_object();
    w.key("src");
    w.value(static_cast<std::uint64_t>(l.src));
    w.key("dst");
    w.value(static_cast<std::uint64_t>(l.dst));
    w.key("delivered");
    w.value(l.delivered);
    w.key("crc_drops");
    w.value(l.crc_drops);
    w.key("median_latency");
    w.value(l.median_latency);
    w.key("latency_inflation");
    w.value(l.latency_inflation);
    w.key("score");
    w.value(l.score);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.key("inputs");
  w.begin_object();
  w.key("timeline_samples");
  w.value(doc.timeline_samples);
  w.key("audit_records");
  w.value(doc.audit_records);
  w.key("audited_exchanges");
  w.value(doc.audited_exchanges);
  w.key("trace_records");
  w.value(doc.trace_records);
  w.end_object();
  w.key("warnings");
  w.begin_array();
  for (const auto& warning : doc.warnings) w.value(warning);
  w.end_array();
  w.end_object();
  os << "\n";
  return os.str();
}

bool explain_from_json(const common::JsonValue& v, ExplainDoc& out) {
  const auto* schema = v.find("schema");
  if (schema == nullptr || schema->as_string() != "decor.explain.v1") {
    return false;
  }
  out = ExplainDoc{};
  if (const auto* c = v.find("converged")) out.converged = c->as_bool();
  out.convergence_time = num_at(v, "convergence_time", -1.0);
  out.sample_cadence = num_at(v, "sample_cadence");
  if (const auto* p = v.find("phases")) {
    out.detection = num_at(*p, "detection");
    out.decision = num_at(*p, "decision");
    out.propagation = num_at(*p, "propagation");
  }
  if (const auto* cp = v.get("critical_path", "closing_placement");
      cp != nullptr && cp->is_object()) {
    out.closing_placement.present = true;
    out.closing_placement.t = num_at(*cp, "t");
    out.closing_placement.actor =
        static_cast<std::uint32_t>(num_at(*cp, "actor"));
    out.closing_placement.reason = str_at(*cp, "reason");
    out.closing_placement.x = num_at(*cp, "x");
    out.closing_placement.y = num_at(*cp, "y");
    out.closing_placement.benefit = num_at(*cp, "benefit");
    out.closing_placement.newly_satisfied = u64_at(*cp, "newly_satisfied");
    out.closing_placement.trace_id = u64_at(*cp, "trace_id");
  }
  if (const auto* h = v.get("critical_path", "last_hole");
      h != nullptr && h->is_object()) {
    out.last_hole.present = true;
    out.last_hole.t = num_at(*h, "t");
    out.last_hole.points = u64_at(*h, "points");
    out.last_hole.area = num_at(*h, "area");
    out.last_hole.cx = num_at(*h, "cx");
    out.last_hole.cy = num_at(*h, "cy");
    out.last_hole.max_deficit = u64_at(*h, "max_deficit");
  }
  if (const auto* ex = v.get("critical_path", "exchange");
      ex != nullptr && ex->is_object()) {
    out.exchange.present = true;
    out.exchange.trace_id = u64_at(*ex, "trace_id");
    out.exchange.origin = static_cast<std::uint32_t>(num_at(*ex, "origin"));
    out.exchange.first_t = num_at(*ex, "first_t");
    out.exchange.last_t = num_at(*ex, "last_t");
    out.exchange.retransmits = u64_at(*ex, "retransmits");
    out.exchange.retx_delay = num_at(*ex, "retx_delay");
    if (const auto* c = ex->find("completed")) {
      out.exchange.completed = c->as_bool();
    }
    if (const auto* legs = ex->find("legs"); legs != nullptr) {
      for (const auto& l : legs->items()) {
        ExplainLeg leg;
        leg.t = num_at(l, "t");
        leg.dt = num_at(l, "dt");
        leg.leg = str_at(l, "leg");
        leg.node = static_cast<std::uint32_t>(num_at(l, "node"));
        leg.from = static_cast<std::int64_t>(num_at(l, "from", -1.0));
        out.exchange.legs.push_back(std::move(leg));
      }
    }
  }
  if (const auto* in = v.find("inputs")) {
    out.timeline_samples = u64_at(*in, "timeline_samples");
    out.audit_records = u64_at(*in, "audit_records");
    out.audited_exchanges = u64_at(*in, "audited_exchanges");
    out.trace_records = u64_at(*in, "trace_records");
  }
  if (const auto* h = v.find("health")) {
    out.fleet_median_exchange_latency =
        num_at(*h, "fleet_median_exchange_latency");
    out.fleet_median_link_latency = num_at(*h, "fleet_median_link_latency");
    if (const auto* nodes = h->find("nodes"); nodes != nullptr) {
      for (const auto& n : nodes->items()) {
        ExplainNodeHealth nh;
        nh.node = static_cast<std::uint32_t>(num_at(n, "node"));
        nh.tx = u64_at(n, "tx");
        nh.retx = u64_at(n, "retx");
        nh.drops = u64_at(n, "drops");
        nh.dead_peer_events = u64_at(n, "dead_peer_events");
        nh.retx_ratio = num_at(n, "retx_ratio");
        nh.latency_inflation = num_at(n, "latency_inflation");
        nh.score = num_at(n, "score");
        out.nodes.push_back(nh);
      }
    }
    if (const auto* links = h->find("links"); links != nullptr) {
      for (const auto& l : links->items()) {
        ExplainLinkHealth lh;
        lh.src = static_cast<std::uint32_t>(num_at(l, "src"));
        lh.dst = static_cast<std::uint32_t>(num_at(l, "dst"));
        lh.delivered = u64_at(l, "delivered");
        lh.crc_drops = u64_at(l, "crc_drops");
        lh.median_latency = num_at(l, "median_latency");
        lh.latency_inflation = num_at(l, "latency_inflation");
        lh.score = num_at(l, "score");
        out.links.push_back(lh);
      }
    }
  }
  if (const auto* ws = v.find("warnings"); ws != nullptr) {
    for (const auto& warning : ws->items()) {
      out.warnings.push_back(warning.as_string());
    }
  }
  return true;
}

ExplainDiff explain_diff(const ExplainDoc& a, const ExplainDoc& b,
                         std::size_t top_n) {
  ExplainDiff d;
  d.comparable = a.converged && b.converged;
  if (d.comparable) {
    d.convergence_delta = b.convergence_time - a.convergence_time;
  }
  d.detection_delta = b.detection - a.detection;
  d.decision_delta = b.decision - a.decision;
  d.propagation_delta = b.propagation - a.propagation;
  // The dominant phase is the one that *worsened* most: the culprit of
  // a regression is the phase that grew, even when another phase shrank
  // by more (time not spent propagating is spent idling in decision, so
  // the two deltas largely mirror each other). Only when no phase grew
  // (B uniformly faster) does the largest improvement get the credit.
  double best = 0.0;
  for (const auto& [name, delta] :
       {std::pair<const char*, double>{"detection", d.detection_delta},
        {"decision", d.decision_delta},
        {"propagation", d.propagation_delta}}) {
    if (delta > best) {
      best = delta;
      d.dominant_phase = name;
    }
  }
  if (best == 0.0) {
    for (const auto& [name, delta] :
         {std::pair<const char*, double>{"detection", d.detection_delta},
          {"decision", d.decision_delta},
          {"propagation", d.propagation_delta}}) {
      if (delta < best) {
        best = delta;
        d.dominant_phase = name;
      }
    }
  }

  std::map<std::uint32_t, double> node_base;
  for (const auto& n : a.nodes) node_base[n.node] = n.score;
  std::vector<ExplainNodeHealth> nodes;
  for (const auto& n : b.nodes) {
    const auto it = node_base.find(n.node);
    ExplainNodeHealth h = n;
    h.score = n.score - (it != node_base.end() ? it->second : 0.0);
    if (h.score > 0.0) nodes.push_back(h);
  }
  std::sort(nodes.begin(), nodes.end(),
            [](const ExplainNodeHealth& x, const ExplainNodeHealth& y) {
              if (x.score != y.score) return x.score > y.score;
              return x.node < y.node;
            });
  if (nodes.size() > top_n) nodes.resize(top_n);
  d.suspect_nodes = std::move(nodes);

  std::map<std::pair<std::uint32_t, std::uint32_t>, double> link_base;
  for (const auto& l : a.links) link_base[{l.src, l.dst}] = l.score;
  std::vector<ExplainLinkHealth> links;
  for (const auto& l : b.links) {
    const auto it = link_base.find({l.src, l.dst});
    ExplainLinkHealth h = l;
    h.score = l.score - (it != link_base.end() ? it->second : 0.0);
    if (h.score > 0.0) links.push_back(h);
  }
  std::sort(links.begin(), links.end(),
            [](const ExplainLinkHealth& x, const ExplainLinkHealth& y) {
              if (x.score != y.score) return x.score > y.score;
              if (x.src != y.src) return x.src < y.src;
              return x.dst < y.dst;
            });
  if (links.size() > top_n) links.resize(top_n);
  d.suspect_links = std::move(links);
  return d;
}

}  // namespace decor::core
