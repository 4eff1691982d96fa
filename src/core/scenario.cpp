#include "core/scenario.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <sstream>

namespace zmail::core {

namespace {

std::vector<std::string> split_ws(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

}  // namespace

std::optional<std::int64_t> parse_int(const std::string& token) {
  if (token.empty()) return std::nullopt;
  try {
    std::size_t pos = 0;
    const std::int64_t v = std::stoll(token, &pos);
    if (pos != token.size()) return std::nullopt;
    return v;
  } catch (...) {
    return std::nullopt;
  }
}

std::optional<std::uint64_t> parse_count(const std::string& token) {
  const auto v = parse_int(token);
  if (!v || *v < 0) return std::nullopt;
  return static_cast<std::uint64_t>(*v);
}

std::optional<std::pair<std::size_t, std::size_t>> parse_user_ref(
    const std::string& token) {
  if (token.find('@') != std::string::npos) {
    const auto addr = net::parse_address(token);
    if (!addr) return std::nullopt;
    std::size_t isp = 0, user = 0;
    if (!net::decode_user_address(*addr, isp, user)) return std::nullopt;
    return std::make_pair(isp, user);
  }
  const std::size_t dot = token.find('.');
  if (dot == std::string::npos) return std::nullopt;
  const auto isp = parse_int(token.substr(0, dot));
  const auto user = parse_int(token.substr(dot + 1));
  if (!isp || !user || *isp < 0 || *user < 0) return std::nullopt;
  return std::make_pair(static_cast<std::size_t>(*isp),
                        static_cast<std::size_t>(*user));
}

std::optional<sim::Duration> parse_duration(const std::string& token) {
  if (token.size() < 2) return std::nullopt;
  const char suffix = token.back();
  const auto value = parse_int(token.substr(0, token.size() - 1));
  if (!value || *value < 0) return std::nullopt;
  switch (suffix) {
    case 's': return *value * sim::kSecond;
    case 'm': return *value * sim::kMinute;
    case 'h': return *value * sim::kHour;
    case 'd': return *value * sim::kDay;
    default: return std::nullopt;
  }
}

namespace {

// Verb lines the runner would otherwise skip or misread: extra tokens, an
// unknown print form, a malformed count or duration, a send tail other
// than `subject TEXT`.  What depends on world state (ranges, compliance,
// the store) is checked when the command runs.
std::optional<std::string> shape_problem(const std::vector<std::string>& t) {
  const std::string& verb = t[0];
  const std::size_t n = t.size() - 1;  // argument count
  if ((verb == "day" || verb == "snapshot") && n != 0)
    return verb + " takes no arguments";
  if (verb == "run" && (n != 1 || !parse_duration(t[1])))
    return "run takes one duration like 10m";
  if (verb == "print" && n != 0 && !(n == 1 && t[1] == "balances"))
    return "print takes no argument or `balances`";
  if (verb == "expect" && n > 1 && t[1] == "conservation")
    return "expect conservation takes no arguments";
  if (verb == "spam" &&
      (n != 2 || t[2].rfind("count=", 0) != 0 || !parse_count(t[2].substr(6))))
    return "spam takes <from> count=N";
  if (verb == "send" && n != 2 && !(n >= 4 && t[3] == "subject"))
    return "send takes <from> <to> [subject TEXT]";
  return std::nullopt;
}

}  // namespace

std::optional<Scenario> Scenario::parse(const std::string& text,
                                        ScenarioError* error) {
  auto fail = [&](std::size_t line, const std::string& msg) {
    if (error) *error = ScenarioError{line, msg};
    return std::nullopt;
  };

  Scenario s;
  bool world_seen = false;
  std::istringstream in(text);
  std::string raw;
  std::size_t lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    const std::vector<std::string> toks = split_ws(raw);
    if (toks.empty()) continue;

    if (toks[0] == "world") {
      if (world_seen) return fail(lineno, "duplicate world line");
      world_seen = true;
      static const std::vector<std::string> kKeys = {
          "isps", "users", "balance", "limit",
          "seed", "retry", "reliable", "compliant"};
      std::vector<std::string> seen;
      std::optional<std::string> mask;
      for (std::size_t k = 1; k < toks.size(); ++k) {
        const std::size_t eq = toks[k].find('=');
        if (eq == std::string::npos)
          return fail(lineno, "world expects key=value, got " + toks[k]);
        const std::string key = toks[k].substr(0, eq);
        const std::string value = toks[k].substr(eq + 1);
        if (std::find(kKeys.begin(), kKeys.end(), key) == kKeys.end())
          return fail(lineno, "unknown world key: " + key);
        if (std::find(seen.begin(), seen.end(), key) != seen.end())
          return fail(lineno, "duplicate world key: " + key);
        seen.push_back(key);
        if (key == "compliant") {
          mask = value;
          continue;
        }
        const auto n = parse_count(value);
        if (!n) return fail(lineno, key + "= needs a count >= 0: " + value);
        if (key == "isps") s.params_.n_isps = *n;
        if (key == "users") s.params_.users_per_isp = *n;
        if (key == "balance")
          s.params_.initial_user_balance = static_cast<std::int64_t>(*n);
        if (key == "limit")
          s.params_.default_daily_limit = static_cast<std::int64_t>(*n);
        if (key == "seed") s.seed_ = *n;
        // Hardened-transport switches: crash/outage scenarios lose in-flight
        // datagrams, so scripts using `crash` want both of these on.
        if ((key == "retry" || key == "reliable") && *n > 1)
          return fail(lineno, key + "= must be 0 or 1: " + value);
        if (key == "retry") s.params_.retry.enabled = *n == 1;
        if (key == "reliable") s.params_.reliable_email_transport = *n == 1;
      }
      if (mask) {
        s.params_.compliant.clear();
        for (char c : *mask) {
          if (c != '0' && c != '1')
            return fail(lineno, "compliant mask must be 0s and 1s");
          s.params_.compliant.push_back(c == '1');
        }
      }
      // The check ZmailSystem asserts on (mask length included), reported
      // as a script error.
      if (const auto problems = s.params_.validate(); !problems.empty())
        return fail(lineno, problems.front());
      continue;
    }

    if (!world_seen) return fail(lineno, "script must start with `world`");
    static const std::vector<std::string> kVerbs = {
        "send", "spam", "buy",      "sell",   "run",   "day",
        "flip", "snapshot", "expect", "print", "policy", "crash"};
    bool known = false;
    for (const auto& v : kVerbs) known = known || v == toks[0];
    if (!known) return fail(lineno, "unknown command: " + toks[0]);

    if (const auto problem = shape_problem(toks)) return fail(lineno, *problem);

    Command cmd;
    cmd.line = lineno;
    cmd.verb = toks[0];
    cmd.args.assign(toks.begin() + 1, toks.end());
    s.commands_.push_back(std::move(cmd));
  }
  if (!world_seen) return fail(0, "empty script (no world line)");
  return s;
}

std::string ScenarioResult::output_text() const {
  std::string out;
  for (const auto& line : output) {
    out += line;
    out += '\n';
  }
  return out;
}

ScenarioRunner::ScenarioRunner(const Scenario& scenario)
    : scenario_(scenario), world_(scenario.params_, scenario.seed_) {}

ScenarioResult ScenarioRunner::run() {
  ScenarioResult result;
  auto fail = [&](std::size_t line, const std::string& msg) {
    result.failures.push_back(ScenarioError{line, msg});
  };
  auto addr = [](std::size_t isp, std::size_t user) {
    return net::make_user_address(isp, user);
  };
  auto in_range = [&](const std::pair<std::size_t, std::size_t>& who) {
    return who.first < world_.params().n_isps &&
           who.second < world_.params().users_per_isp;
  };

  for (const auto& cmd : scenario_.commands_) {
    ++result.commands_executed;
    const auto& a = cmd.args;

    if (cmd.verb == "send") {
      const auto from = parse_user_ref(a[0]);
      const auto to = parse_user_ref(a[1]);
      if (!from || !to || !in_range(*from) || !in_range(*to)) {
        fail(cmd.line, "send: bad or out-of-range user ref");
        continue;
      }
      std::string subject = a.size() > 3 ? a[3] : "scenario";
      for (std::size_t i = 4; i < a.size(); ++i) subject += " " + a[i];
      world_.send_email(addr(from->first, from->second),
                        addr(to->first, to->second), subject, "body");
    } else if (cmd.verb == "spam") {
      const auto from = parse_user_ref(a[0]);
      if (!from || !in_range(*from)) {
        fail(cmd.line, "spam needs an in-range <from>");
        continue;
      }
      const std::uint64_t n = *parse_count(a[1].substr(6));  // "count=N"
      Rng rng(cmd.line * 7919 + 13);
      for (std::uint64_t k = 0; k < n; ++k) {
        const auto ti = rng.next_below(world_.params().n_isps);
        const auto tu = rng.next_below(world_.params().users_per_isp);
        world_.send_email(addr(from->first, from->second), addr(ti, tu),
                          "zxoffer", "zxbuy zxnow", net::MailClass::kSpam);
      }
    } else if (cmd.verb == "buy" || cmd.verb == "sell") {
      if (a.size() != 2) {
        fail(cmd.line, cmd.verb + " needs <user> <n>");
        continue;
      }
      const auto who = parse_user_ref(a[0]);
      const auto n = parse_int(a[1]);
      if (!who || !n || !in_range(*who)) {
        fail(cmd.line, cmd.verb + ": bad arguments");
        continue;
      }
      const auto address = addr(who->first, who->second);
      const bool ok = cmd.verb == "buy" ? world_.buy_epennies(address, *n)
                                        : world_.sell_epennies(address, *n);
      if (!ok) fail(cmd.line, cmd.verb + " refused");
    } else if (cmd.verb == "run") {
      world_.run_for(*parse_duration(a[0]));
    } else if (cmd.verb == "day") {
      for (std::size_t i = 0; i < world_.params().n_isps; ++i)
        if (world_.is_compliant(i)) world_.isp(i).end_of_day();
    } else if (cmd.verb == "flip") {
      const auto i = a.empty() ? std::nullopt : parse_int(a[0]);
      if (!i || *i < 0 ||
          static_cast<std::size_t>(*i) >= world_.params().n_isps) {
        fail(cmd.line, "flip needs a valid isp index");
        continue;
      }
      world_.make_compliant(static_cast<std::size_t>(*i));
    } else if (cmd.verb == "snapshot") {
      world_.start_snapshot();
    } else if (cmd.verb == "crash") {
      // crash <isp-index|bank<k>> <duration>: wipe the host's in-memory
      // state and recover it from snapshot + WAL replay after <duration>
      // (`bank` is member bank 0).  Only meaningful with the durable store
      // (there is nothing to recover from otherwise), so it refuses on
      // store-off worlds.
      if (!world_.params().store.enabled) {
        fail(cmd.line, "crash requires the durable store (--store-dir)");
        continue;
      }
      const auto d = a.size() == 2 ? parse_duration(a[1]) : std::nullopt;
      std::optional<std::size_t> host;
      if (a.size() == 2 && a[0].rfind("bank", 0) == 0) {
        const std::string idx = a[0].substr(4);
        const auto b = idx.empty() ? std::optional<std::int64_t>(0)
                                   : parse_int(idx);
        if (b && *b >= 0 &&
            static_cast<std::size_t>(*b) < world_.bank().bank_count())
          host = world_.bank_host(static_cast<std::size_t>(*b));
      } else if (a.size() == 2) {
        const auto i = parse_int(a[0]);
        if (i && *i >= 0 &&
            static_cast<std::size_t>(*i) < world_.params().n_isps &&
            world_.is_compliant(static_cast<std::size_t>(*i)))
          host = static_cast<std::size_t>(*i);
      }
      if (!host || !d) {
        fail(cmd.line, "crash needs <compliant-isp|bank<k>> <duration>");
        continue;
      }
      world_.crash_host(*host, *d);
    } else if (cmd.verb == "policy") {
      // policy <isp> <accept|segregate|discard|filter>: how this ISP's
      // users treat mail from non-compliant senders (per-user overrides).
      const auto i = a.size() == 2 ? parse_int(a[0]) : std::nullopt;
      std::optional<NonCompliantPolicy> policy;
      if (a.size() == 2) {
        if (a[1] == "accept") policy = NonCompliantPolicy::kAccept;
        else if (a[1] == "segregate") policy = NonCompliantPolicy::kSegregate;
        else if (a[1] == "discard") policy = NonCompliantPolicy::kDiscard;
        else if (a[1] == "filter") policy = NonCompliantPolicy::kFilter;
      }
      if (!i || *i < 0 ||
          static_cast<std::size_t>(*i) >= world_.params().n_isps ||
          !world_.is_compliant(static_cast<std::size_t>(*i)) || !policy) {
        fail(cmd.line, "policy needs a compliant isp and a policy name");
        continue;
      }
      Isp& isp = world_.isp(static_cast<std::size_t>(*i));
      for (std::size_t u = 0; u < world_.params().users_per_isp; ++u)
        isp.users().set_policy_override(UserId(u), *policy);
    } else if (cmd.verb == "expect") {
      if (a.empty()) {
        fail(cmd.line, "empty expect");
        continue;
      }
      if (a[0] == "balance" && a.size() == 3) {
        const auto who = parse_user_ref(a[1]);
        const auto want = parse_int(a[2]);
        if (!who || !want || !in_range(*who) ||
            !world_.is_compliant(who->first)) {
          fail(cmd.line, "expect balance <user> <n>");
          continue;
        }
        const EPenny got =
            world_.isp(who->first).user(who->second).balance;
        if (got != *want) {
          fail(cmd.line, "expect balance " + a[1] + ": got " +
                             std::to_string(got) + ", want " + a[2]);
        }
      } else if (a[0] == "violations" && a.size() == 2) {
        const auto want = parse_int(a[1]);
        const auto got = static_cast<std::int64_t>(
            world_.bank().last_violations().size());
        if (!want || got != *want)
          fail(cmd.line,
               "expect violations: got " + std::to_string(got));
      } else if (a[0] == "conservation") {
        if (!world_.conservation_holds())
          fail(cmd.line, "conservation violated");
      } else {
        fail(cmd.line, "unknown expectation: " + a[0]);
      }
    } else if (cmd.verb == "print") {
      if (!a.empty() && a[0] == "balances") {
        for (std::size_t i = 0; i < world_.params().n_isps; ++i) {
          if (!world_.is_compliant(i)) continue;
          for (std::size_t u = 0; u < world_.params().users_per_isp; ++u) {
            char line[96];
            std::snprintf(line, sizeof line, "%s balance=%lld",
                          net::make_user_address(i, u).str().c_str(),
                          static_cast<long long>(
                              world_.isp(i).user(u).balance));
            result.output.emplace_back(line);
          }
        }
      } else {
        char line[64];
        std::snprintf(line, sizeof line, "t=%s",
                      sim::format_time(world_.now()).c_str());
        result.output.emplace_back(line);
      }
    }
  }
  return result;
}

}  // namespace zmail::core
