#include "depbench/campaign_report.h"

#include <cstdio>
#include <ostream>

#include "obs/chrome_trace.h"
#include "obs/json.h"

namespace gf::depbench {

namespace {

using obs::json::escape;
using obs::json::number;

std::string window_json(const spec::WindowMetrics& m) {
  return "{\"duration_ms\": " + number(m.duration_ms) +
         ", \"ops\": " + std::to_string(m.ops) +
         ", \"errors\": " + std::to_string(m.errors) +
         ", \"bytes\": " + std::to_string(m.bytes) +
         ", \"thr\": " + number(m.thr) + ", \"rtm_ms\": " + number(m.rtm_ms) +
         ", \"er_pct\": " + number(m.er_pct) +
         ", \"spc\": " + std::to_string(m.spc) +
         ", \"cc_pct\": " + number(m.cc_pct) + "}";
}

std::string counters_json(const CampaignCounters& c) {
  return "{\"mis\": " + std::to_string(c.mis) +
         ", \"kns\": " + std::to_string(c.kns) +
         ", \"kcp\": " + std::to_string(c.kcp) +
         ", \"faults_injected\": " + std::to_string(c.faults_injected) +
         ", \"self_restarts\": " + std::to_string(c.self_restarts) + "}";
}

std::string derived_json(const DependabilityMetrics& d) {
  return "{\"spcf\": " + number(d.spcf) + ", \"thrf\": " + number(d.thrf) +
         ", \"rtmf\": " + number(d.rtmf) +
         ", \"erf_pct\": " + number(d.erf_pct) +
         ", \"admf\": " + number(d.admf) +
         ", \"spc_rel\": " + number(d.spc_rel) +
         ", \"thr_rel\": " + number(d.thr_rel) + "}";
}

// Only result-shaping options appear here: scheduling knobs (jobs, chunk,
// steal) deliberately do not, so the manifest stays byte-identical
// for any worker count or chunk decomposition. profile_stride shapes the
// profiles section, hence its presence (0 = profiling off).
std::string options_json(const RunnerOptions& opt) {
  return "{\"iterations\": " + std::to_string(opt.iterations) +
         ", \"stride\": " + std::to_string(opt.stride) +
         ", \"time_scale\": " + number(opt.time_scale) +
         ", \"baseline_window_ms\": " + number(opt.baseline_window_ms) +
         ", \"seed\": " + std::to_string(opt.seed) +
         ", \"warm_boot\": " + (opt.warm_boot ? "true" : "false") +
         ", \"trace\": " + (opt.trace ? "true" : "false") +
         ", \"profile_stride\": " +
         std::to_string(opt.profile ? opt.profile_stride : 0) + "}";
}

// Minimal HTML escaping for the few strings we interpolate.
std::string html(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    switch (ch) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      default: out += ch;
    }
  }
  return out;
}

std::string fmt2(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  return buf;
}

}  // namespace

std::string campaign_manifest_json(const std::vector<ExperimentCell>& cells,
                                   const RunnerOptions& opt,
                                   const CampaignObs* obs) {
  std::string out = "{\n\"schema\": \"genfault-campaign/1\",\n";
  out += "\"options\": " + options_json(opt) + ",\n";
  out += "\"cells\": [";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& cell = cells[i];
    out += i == 0 ? "\n" : ",\n";
    out += "{\"os\": \"" + escape(cell.os_name) + "\", \"server\": \"" +
           escape(cell.server_name) + "\",\n";
    out += " \"baseline\": " + window_json(cell.baseline) + ",\n";
    out += " \"iterations\": [";
    for (std::size_t it = 0; it < cell.iterations.size(); ++it) {
      out += it == 0 ? "\n" : ",\n";
      out += "  {\"metrics\": " + window_json(cell.iterations[it].metrics) +
             ", \"counters\": " + counters_json(cell.iterations[it].counters) +
             "}";
    }
    out += "],\n";
    out += " \"derived\": " + derived_json(derive_metrics(cell)) + "}";
  }
  out += "\n],\n";
  // Per-cell profile section (per-run drill-down lives in the
  // --profile-json artifact): the baseline and merged-fault profiles at
  // function granularity — enough for `gfbench diff` to compare campaigns —
  // plus the top share deltas of the fault-vs-baseline differential. Null
  // when the campaign ran unprofiled.
  out += "\"profiles\": ";
  const auto profiles =
      obs != nullptr ? collect_profiles(*obs) : std::vector<CellProfiles>{};
  if (profiles.empty()) {
    out += "null,\n";
  } else {
    out += "[";
    for (std::size_t i = 0; i < profiles.size(); ++i) {
      const auto& cp = profiles[i];
      out += i == 0 ? "\n" : ",\n";
      out += "{\"cell\": \"" + escape(cp.cell) +
             "\", \"baseline\": " + cp.baseline.to_json() +
             ", \"faults\": " + cp.faults.to_json() + ", \"divergence\": " +
             profile_divergence(cp.baseline, cp.faults).to_json(10) + "}";
    }
    out += "\n],\n";
  }
  out += "\"metrics\": ";
  out += obs != nullptr ? obs->metrics.to_json() : std::string("null\n");
  out += "}\n";
  return out;
}

std::string campaign_html_report(const std::vector<ExperimentCell>& cells,
                                 const RunnerOptions& opt,
                                 const CampaignObs* obs) {
  std::string out =
      "<!doctype html>\n<html><head><meta charset=\"utf-8\">\n"
      "<title>genfault campaign report</title>\n"
      "<style>\n"
      "body{font:14px/1.4 system-ui,sans-serif;margin:2em;max-width:70em}\n"
      "table{border-collapse:collapse;margin:0.5em 0}\n"
      "td,th{border:1px solid #bbb;padding:0.25em 0.6em;text-align:right}\n"
      "th{background:#eee}td.l,th.l{text-align:left}\n"
      "details{margin:0.5em 0}summary{cursor:pointer;font-weight:600}\n"
      ".bar{background:#4a7;display:inline-block;height:0.8em}\n"
      "</style></head><body>\n"
      "<h1>Dependability benchmark report</h1>\n";
  // Scheduling knobs (jobs/chunk/steal) are omitted: the report must be
  // byte-identical for any decomposition of the same campaign.
  out += "<p>iterations=" + std::to_string(opt.iterations) +
         " stride=" + std::to_string(opt.stride) +
         " seed=" + std::to_string(opt.seed) +
         " time_scale=" + number(opt.time_scale) + "</p>\n";

  // Table 5: one row per cell, drill-down into iterations per cell.
  out +=
      "<h2>Results (Table 5)</h2>\n<table>\n"
      "<tr><th class=l>cell</th><th>SPCf</th><th>THRf</th><th>RTMf ms</th>"
      "<th>ERf %</th><th>ADMf</th><th>SPC rel</th><th>THR rel</th></tr>\n";
  for (const auto& cell : cells) {
    const auto d = derive_metrics(cell);
    out += "<tr><td class=l>" + html(cell.server_name) + " on " +
           html(cell.os_name) + "</td><td>" + fmt2(d.spcf) + "</td><td>" +
           fmt2(d.thrf) + "</td><td>" + fmt2(d.rtmf) + "</td><td>" +
           fmt2(d.erf_pct) + "</td><td>" + fmt2(d.admf) + "</td><td>" +
           fmt2(d.spc_rel) + "</td><td>" + fmt2(d.thr_rel) + "</td></tr>\n";
  }
  out += "</table>\n";

  // Fig 5: relative performance retention bars.
  out += "<h2>Relative performance under faults (Fig 5)</h2>\n";
  for (const auto& cell : cells) {
    const auto d = derive_metrics(cell);
    const int w = static_cast<int>(d.thr_rel * 300);
    out += "<div>" + html(cell.server_name) + " on " + html(cell.os_name) +
           ": <span class=bar style=\"width:" + std::to_string(w) +
           "px\"></span> " + fmt2(d.thr_rel * 100) + "%</div>\n";
  }

  // Per-cell drill-down.
  out += "<h2>Per-cell detail</h2>\n";
  for (const auto& cell : cells) {
    out += "<details><summary>" + html(cell.server_name) + " on " +
           html(cell.os_name) + "</summary>\n<table>\n"
           "<tr><th class=l>run</th><th>ops</th><th>THR</th><th>RTM ms</th>"
           "<th>ER %</th><th>SPC</th><th>MIS</th><th>KNS</th><th>KCP</th>"
           "<th>self-restarts</th><th>faults</th></tr>\n";
    auto row = [&](const std::string& name, const spec::WindowMetrics& m,
                   const CampaignCounters* c) {
      out += "<tr><td class=l>" + html(name) + "</td><td>" +
             std::to_string(m.ops) + "</td><td>" + fmt2(m.thr) + "</td><td>" +
             fmt2(m.rtm_ms) + "</td><td>" + fmt2(m.er_pct) + "</td><td>" +
             std::to_string(m.spc) + "</td>";
      if (c != nullptr) {
        out += "<td>" + std::to_string(c->mis) + "</td><td>" +
               std::to_string(c->kns) + "</td><td>" + std::to_string(c->kcp) +
               "</td><td>" + std::to_string(c->self_restarts) + "</td><td>" +
               std::to_string(c->faults_injected) + "</td>";
      } else {
        out += "<td>-</td><td>-</td><td>-</td><td>-</td><td>-</td>";
      }
      out += "</tr>\n";
    };
    row("baseline", cell.baseline, nullptr);
    for (std::size_t it = 0; it < cell.iterations.size(); ++it) {
      row("iteration " + std::to_string(it), cell.iterations[it].metrics,
          &cell.iterations[it].counters);
    }
    out += "</table>\n</details>\n";
  }

  // Cycle attribution: where each cell's execution went under faults vs its
  // baseline (top-10 share deltas of the differential profile), plus an
  // inline flame bar per function scaled to the faulty-run share.
  if (obs != nullptr) {
    const auto profiles = collect_profiles(*obs);
    if (!profiles.empty()) {
      out += "<h2>Cycle profiles (fault vs baseline)</h2>\n";
      for (const auto& cp : profiles) {
        const auto div = profile_divergence(cp.baseline, cp.faults);
        out += "<details><summary>" + html(cp.cell) + " &mdash; divergence " +
               fmt2(div.score) + "</summary>\n<table>\n"
               "<tr><th class=l>function</th><th>baseline %</th>"
               "<th>faulty %</th><th>&Delta; pp</th><th class=l></th></tr>\n";
        const std::size_t top = std::min<std::size_t>(10, div.deltas.size());
        for (std::size_t i = 0; i < top; ++i) {
          const auto& fd = div.deltas[i];
          const int w = static_cast<int>(fd.fault_share * 200);
          out += "<tr><td class=l>" + html(fd.name) + "</td><td>" +
                 fmt2(fd.base_share * 100) + "</td><td>" +
                 fmt2(fd.fault_share * 100) + "</td><td>" +
                 fmt2(fd.delta * 100) + "</td><td class=l><span class=bar "
                 "style=\"width:" + std::to_string(w) +
                 "px\"></span></td></tr>\n";
        }
        out += "</table>\n</details>\n";
      }
    }
  }

  // Merged metrics drill-down (counters only; histograms live in the JSON).
  if (obs != nullptr) {
    out += "<h2>Campaign metrics</h2>\n<details><summary>" +
           std::to_string(obs->metrics.counters().size()) +
           " counters</summary>\n<table>\n"
           "<tr><th class=l>counter</th><th>value</th></tr>\n";
    for (const auto& [name, v] : obs->metrics.counters()) {
      out += "<tr><td class=l>" + html(name) + "</td><td>" +
             std::to_string(v) + "</td></tr>\n";
    }
    out += "</table>\n</details>\n";
    out += "<details><summary>" +
           std::to_string(obs->metrics.histograms().size()) +
           " histograms</summary>\n<table>\n"
           "<tr><th class=l>histogram</th><th>count</th><th>mean</th>"
           "<th>min</th><th>max</th></tr>\n";
    for (const auto& [name, h] : obs->metrics.histograms()) {
      out += "<tr><td class=l>" + html(name) + "</td><td>" +
             std::to_string(h.count) + "</td><td>" + fmt2(h.mean()) +
             "</td><td>" + std::to_string(h.count > 0 ? h.min : 0) +
             "</td><td>" + std::to_string(h.max) + "</td></tr>\n";
    }
    out += "</table>\n</details>\n";
  }

  out += "</body></html>\n";
  return out;
}

std::vector<CellProfiles> collect_profiles(const CampaignObs& obs) {
  std::vector<CellProfiles> out;
  for (const auto& slot : obs.tasks) {
    if (slot.obs.profile.stride == 0) continue;  // profiling off / empty slot
    if (out.empty() || out.back().cell != slot.cell) {
      out.push_back({slot.cell, {}, {}, {}});
    }
    auto& cp = out.back();
    if (slot.label == "baseline") {
      cp.baseline.merge(slot.obs.profile);
    } else {
      cp.faults.merge(slot.obs.profile);
      cp.runs.emplace_back(slot.label, slot.obs.profile);
    }
  }
  return out;
}

std::string campaign_profile_json(const std::vector<ExperimentCell>& cells,
                                  const RunnerOptions& opt,
                                  const CampaignObs& obs) {
  (void)cells;
  std::string out = "{\n\"schema\": \"genfault-profile/1\",\n";
  out += "\"stride\": " +
         std::to_string(opt.profile ? opt.profile_stride : 0) + ",\n";
  out += "\"cells\": [";
  const auto profiles = collect_profiles(obs);
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const auto& cp = profiles[i];
    out += i == 0 ? "\n" : ",\n";
    out += "{\"cell\": \"" + escape(cp.cell) + "\",\n";
    out += " \"baseline\": " + cp.baseline.to_json() + ",\n";
    out += " \"faults\": " + cp.faults.to_json() + ",\n";
    out += " \"divergence\": " +
           profile_divergence(cp.baseline, cp.faults).to_json() + ",\n";
    out += " \"runs\": [";
    for (std::size_t k = 0; k < cp.runs.size(); ++k) {
      const auto& [label, prof] = cp.runs[k];
      out += k == 0 ? "\n" : ",\n";
      out += "  {\"label\": \"" + escape(label) +
             "\", \"profile\": " + prof.to_json() + ", \"divergence\": " +
             profile_divergence(cp.baseline, prof).to_json(10) + "}";
    }
    out += "]}";
  }
  out += "\n]\n}\n";
  return out;
}

std::string campaign_flamegraph(const CampaignObs& obs) {
  std::string out;
  for (const auto& slot : obs.tasks) {
    if (slot.obs.profile.stride == 0) continue;
    obs::append_collapsed(out, slot.cell + ";" + slot.label, slot.obs.profile);
  }
  return out;
}

void write_campaign_journal(std::ostream& os, const CampaignObs& obs) {
  for (const auto& slot : obs.tasks) {
    obs::write_jsonl(os, slot.cell + "/" + slot.label, slot.obs.journal);
  }
}

std::string campaign_chrome_trace(const CampaignObs& obs) {
  std::vector<obs::TaskTrack> tracks;
  tracks.reserve(obs.tasks.size());
  for (std::size_t i = 0; i < obs.tasks.size(); ++i) {
    const auto& slot = obs.tasks[i];
    obs::TaskTrack t;
    t.cell = slot.cell;
    t.label = slot.label;
    t.tid = static_cast<std::uint32_t>(i + 1);
    t.wall_start_us = slot.obs.wall_start_us;
    t.wall_end_us = slot.obs.wall_end_us;
    t.journal = &slot.obs.journal;
    tracks.push_back(std::move(t));
  }
  return obs::chrome_trace_json(tracks);
}

}  // namespace gf::depbench
