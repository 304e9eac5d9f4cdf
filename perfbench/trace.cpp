#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace perfbench {

std::string LayerOf(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

std::vector<std::int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    auto it = index.find(s.parent);
    if (s.parent != 0 && it != index.end()) {
      children[it->second].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;
    for (auto [begin, end] : kids) {
      begin = std::max(begin, cursor);
      end = std::min(end, s.end_ns);
      if (end > begin) {
        covered += end - begin;
        cursor = end;
      }
    }
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::uint64_t Tracer::Begin(const std::string& name, std::uint64_t parent,
                            std::uint64_t request_id) {
  if (!enabled_) return 0;
  const std::int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t id = next_id_++;
  open_[id] = Span{id, parent, request_id, name, now, 0};
  return id;
}

void Tracer::End(std::uint64_t id) {
  if (!enabled_ || id == 0) return;
  const std::int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = open_.find(id);
  if (it == open_.end()) return;
  it->second.end_ns = now;
  done_.push_back(std::move(it->second));
  open_.erase(it);
}

std::uint64_t Tracer::Record(const std::string& name, std::uint64_t parent,
                             std::uint64_t request_id, std::int64_t start_ns,
                             std::int64_t end_ns) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t id = next_id_++;
  done_.push_back(Span{id, parent, request_id, name, start_ns, end_ns});
  return id;
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_;
}

void WriteJsonLines(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  for (const Span& s : spans) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request_id << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
}

std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = SelfTimesNs(spans);
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    ++t.count;
    t.total_ms += static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6;
    t.self_ms += static_cast<double>(self[i]) / 1e6;
  }
  return totals;
}

std::map<std::string, double> SelfMsByLayer(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = SelfTimesNs(spans);
  std::map<std::string, double> layers;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    layers[LayerOf(spans[i].name)] += static_cast<double>(self[i]) / 1e6;
  }
  return layers;
}

}  // namespace perfbench
