#include "trace/export.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/json.hpp"

namespace zmail::trace {

namespace {

bool read_all(const std::string& path, std::string* out, std::string* error) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    if (error) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  *out = ss.str();
  return true;
}

void append_raw_args(json::Value& args, const TraceEvent& ev) {
  args["seq"] = ev.seq;
  args["wall_ns"] = ev.wall_ns;
  args["id"] = ev.id;
  args["arg0"] = ev.arg0;
  args["arg1"] = static_cast<std::uint64_t>(ev.arg1);
  args["host"] = static_cast<std::uint64_t>(ev.host);
  args["type"] = static_cast<std::uint64_t>(ev.type);
  args["phase"] = static_cast<std::uint64_t>(ev.phase);
}

std::string id_string(TraceId id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(id));
  return buf;
}

}  // namespace

bool export_chrome(const std::string& path,
                   const std::vector<TraceEvent>& events, std::string* error) {
  json::Value root = json::Value::object();
  root["displayTimeUnit"] = "ms";
  json::Value arr = json::Value::array();

  for (const auto& ev : events) {
    json::Value e = json::Value::object();
    e["name"] = ev_name(static_cast<Ev>(ev.type));
    e["cat"] = "zmail";
    const auto phase = static_cast<Phase>(ev.phase);
    if (phase == Phase::kInstant) {
      e["ph"] = "i";
      e["s"] = "t";
    } else if (ev.id != 0) {
      // Async span: events for one message land on one Perfetto track even
      // though begin and end happen on different hosts.
      e["ph"] = (phase == Phase::kBegin) ? "b" : "e";
      e["id"] = id_string(ev.id);
    } else {
      e["ph"] = (phase == Phase::kBegin) ? "B" : "E";
    }
    e["ts"] = ev.sim_us;
    e["pid"] = static_cast<std::uint64_t>(ev.host);
    e["tid"] = static_cast<std::uint64_t>(ev.host);
    json::Value args = json::Value::object();
    append_raw_args(args, ev);
    e["args"] = std::move(args);
    arr.push_back(std::move(e));
  }

  root["traceEvents"] = std::move(arr);
  return json::write_file(path, root, error);
}

bool export_current(const std::string& path, std::string* error) {
  return export_chrome(path, collect(), error);
}

bool load(const std::string& path, std::vector<TraceEvent>* events,
          std::string* error) {
  std::string data;
  if (!read_all(path, &data, error)) return false;
  const auto doc = json::parse(data, error);
  if (!doc) return false;
  const json::Value* arr = doc->find("traceEvents");
  if (arr == nullptr || arr->kind() != json::Value::Kind::kArray) {
    if (error) *error = "missing traceEvents array";
    return false;
  }
  events->clear();
  for (std::size_t i = 0; i < arr->size(); ++i) {
    const json::Value& e = arr->at(i);
    const json::Value* args = e.find("args");
    if (args == nullptr) continue;
    TraceEvent ev;
    const auto u64 = [&](const char* key, std::uint64_t dflt = 0) {
      const json::Value* v = args->find(key);
      return (v != nullptr && v->is_number()) ? v->as_uint64() : dflt;
    };
    ev.seq = u64("seq");
    ev.wall_ns = u64("wall_ns");
    ev.id = u64("id");
    ev.arg0 = u64("arg0");
    ev.arg1 = static_cast<std::uint32_t>(u64("arg1"));
    ev.host = static_cast<std::uint16_t>(u64("host", kNoHost));
    ev.type = static_cast<std::uint8_t>(u64("type"));
    ev.phase = static_cast<std::uint8_t>(u64("phase"));
    const json::Value* ts = e.find("ts");
    if (ts != nullptr && ts->is_number()) ev.sim_us = ts->as_int64();
    events->push_back(ev);
  }
  std::sort(events->begin(), events->end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.seq < b.seq;
            });
  return true;
}

}  // namespace zmail::trace
