#include "fuzz/input.hpp"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <limits>

namespace xchain::fuzz {

namespace {

/// Parses a decimal integer of type T (optional leading '-') at
/// text[pos...], advancing pos past it. Throws FuzzFormatError naming
/// `what` when no digits are present or the value does not fit in T.
template <class T>
T parse_int_at(const std::string& text, std::size_t& pos, const char* what) {
  bool neg = false;
  std::size_t p = pos;
  if (p < text.size() && text[p] == '-') {
    neg = true;
    ++p;
  }
  // The largest magnitude T holds with this sign: |min| is max + 1.
  const std::uint64_t limit =
      static_cast<std::uint64_t>(std::numeric_limits<T>::max()) + (neg ? 1 : 0);
  const std::size_t digits = p;
  std::uint64_t magnitude = 0;
  bool overflow = false;
  while (p < text.size() && std::isdigit(static_cast<unsigned char>(text[p]))) {
    const auto digit = static_cast<std::uint64_t>(text[p] - '0');
    overflow = overflow || magnitude > (limit - digit) / 10;
    if (!overflow) magnitude = magnitude * 10 + digit;
    ++p;
  }
  if (p == digits || overflow) {
    std::string msg = "plan: ";
    msg += overflow ? "out-of-range " : "expected ";
    msg += what;
    msg += " in '";
    msg += text;
    msg += "' at offset ";
    msg += std::to_string(pos);
    throw FuzzFormatError(msg);
  }
  pos = p;
  if (!neg) return static_cast<T>(magnitude);
  // -(magnitude - 1) - 1 stays in range even for magnitude == |min|.
  return static_cast<T>(-static_cast<std::int64_t>(magnitude - 1) - 1);
}

std::string trimmed(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

}  // namespace

sim::DeviationPlan parse_plan(const std::string& text) {
  const std::string t = trimmed(text);
  if (t.empty()) throw FuzzFormatError("plan: empty plan text");

  // Optional "v<variant>:" prefix. No plan part starts with 'v', so a
  // leading 'v' is unambiguous.
  int variant = 0;
  std::size_t pos = 0;
  if (t[0] == 'v') {
    pos = 1;
    variant = parse_int_at<int>(t, pos, "variant");
    if (pos >= t.size() || t[pos] != ':') {
      throw FuzzFormatError("plan: expected ':' after variant in '" + t + "'");
    }
    if (variant == 0) {
      // str() never prints "v0:" — rejecting it keeps the text form of
      // every plan unique (one spelling per plan, same as the canonical
      // forms the shrinker pins).
      throw FuzzFormatError("plan: variant 0 is implicit, drop the 'v0:' in '" +
                            t + "'");
    }
    ++pos;
  }

  const std::string body = t.substr(pos);
  if (body.empty()) throw FuzzFormatError("plan: empty body in '" + t + "'");

  sim::DeviationPlan plan = sim::DeviationPlan::conforming();
  if (body != "conform") {
    // '.'-separated parts; "halt@k" may only appear once, as the last part
    // (the only place str() ever prints it).
    std::vector<int> seen;
    std::size_t start = 0;
    bool halted = false;
    while (start <= body.size()) {
      const std::size_t dot = body.find('.', start);
      const std::string part = body.substr(
          start, dot == std::string::npos ? std::string::npos : dot - start);
      if (part.empty()) {
        throw FuzzFormatError("plan: empty part in '" + t + "'");
      }
      if (halted) {
        throw FuzzFormatError("plan: 'halt@' must be the last part in '" + t +
                              "'");
      }
      std::size_t p = 0;
      if (part.rfind("halt@", 0) == 0) {
        p = 5;
        const int k = parse_int_at<int>(part, p, "halt ordinal");
        if (p != part.size() || k < 0) {
          throw FuzzFormatError("plan: bad halt part '" + part + "'");
        }
        // Rebuild preserving mods added so far (halt_after is a factory).
        sim::DeviationPlan halted_plan = sim::DeviationPlan::halt_after(k);
        for (const int o : seen) {
          const sim::ActionPolicy pol = plan.policy(o);
          halted_plan = pol.choice == sim::ActionChoice::kDrop
                            ? halted_plan.dropped(o)
                            : halted_plan.delayed(o, pol.delay);
        }
        plan = halted_plan;
        halted = true;
      } else if (part[0] == 'd') {
        p = 1;
        const int o = parse_int_at<int>(part, p, "delay ordinal");
        if (p >= part.size() || part[p] != '+') {
          throw FuzzFormatError("plan: expected '+' in delay part '" + part +
                                "'");
        }
        ++p;
        const Tick d = parse_int_at<Tick>(part, p, "delay ticks");
        if (p != part.size() || o < 0 || d < 1) {
          throw FuzzFormatError("plan: bad delay part '" + part + "'");
        }
        if (std::find(seen.begin(), seen.end(), o) != seen.end()) {
          throw FuzzFormatError("plan: duplicate ordinal " + std::to_string(o) +
                                " in '" + t + "'");
        }
        seen.push_back(o);
        plan = plan.delayed(o, d);
      } else if (part[0] == 'x') {
        p = 1;
        const int o = parse_int_at<int>(part, p, "drop ordinal");
        if (p != part.size() || o < 0) {
          throw FuzzFormatError("plan: bad drop part '" + part + "'");
        }
        if (std::find(seen.begin(), seen.end(), o) != seen.end()) {
          throw FuzzFormatError("plan: duplicate ordinal " + std::to_string(o) +
                                " in '" + t + "'");
        }
        seen.push_back(o);
        plan = plan.dropped(o);
      } else {
        throw FuzzFormatError("plan: unknown part '" + part + "' in '" + t +
                              "' (want conform, halt@k, d<o>+<t>, or x<o>)");
      }
      if (dot == std::string::npos) break;
      start = dot + 1;
    }
  }
  if (variant != 0) plan = plan.with_variant(variant);
  return plan;
}

std::vector<sim::ActionPolicy> decode_plan(const sim::DeviationPlan& plan,
                                           int action_count) {
  std::vector<sim::ActionPolicy> acts(
      static_cast<std::size_t>(std::max(action_count, 0)));
  for (int o = 0; o < action_count; ++o) {
    acts[static_cast<std::size_t>(o)] = plan.policy(o);
  }
  return acts;
}

sim::DeviationPlan encode_plan(const std::vector<sim::ActionPolicy>& acts,
                               int variant) {
  const int n = static_cast<int>(acts.size());
  // Maximal trailing run of Drops becomes the halt point; anything at or
  // past it needs no modification entry.
  int halt = n;
  while (halt > 0 && acts[static_cast<std::size_t>(halt - 1)].choice ==
                         sim::ActionChoice::kDrop) {
    --halt;
  }
  sim::DeviationPlan plan = halt < n ? sim::DeviationPlan::halt_after(halt)
                                     : sim::DeviationPlan::conforming();
  for (int o = 0; o < halt; ++o) {
    const sim::ActionPolicy& pol = acts[static_cast<std::size_t>(o)];
    if (pol.choice == sim::ActionChoice::kDrop) {
      plan = plan.dropped(o);
    } else if (pol.choice == sim::ActionChoice::kDelay && pol.delay >= 1) {
      plan = plan.delayed(o, pol.delay);
    }
  }
  if (variant != 0) plan = plan.with_variant(variant);
  return plan;
}

sim::DeviationPlan canonical_plan(const sim::DeviationPlan& plan,
                                  int action_count) {
  return encode_plan(decode_plan(plan, action_count), plan.variant());
}

FuzzInput FuzzInput::parse(const std::string& text) {
  FuzzInput in;
  std::vector<bool> have_plan;
  bool have_resilience = false;
  std::size_t start = 0;
  std::size_t lineno = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    const std::string raw = text.substr(
        start, nl == std::string::npos ? std::string::npos : nl - start);
    ++lineno;
    const std::string line = trimmed(raw);
    const auto fail = [&](const std::string& why) {
      throw FuzzFormatError("fuzz input line " + std::to_string(lineno) +
                            ": " + why + " ('" + line + "')");
    };
    if (!line.empty() && line[0] != '#') {
      const std::size_t sp = line.find(' ');
      const std::string word = line.substr(0, sp);
      const std::string rest =
          sp == std::string::npos ? "" : trimmed(line.substr(sp + 1));
      if (word == "protocol") {
        if (!in.protocol.empty()) fail("duplicate 'protocol' line");
        if (rest.empty()) fail("'protocol' needs a name");
        in.protocol = rest;
      } else if (word == "set") {
        const std::size_t eq = rest.find('=');
        if (eq == std::string::npos || eq == 0) {
          fail("'set' wants key=value");
        }
        in.overrides.emplace_back(trimmed(rest.substr(0, eq)),
                                  trimmed(rest.substr(eq + 1)));
      } else if (word == "plan") {
        const std::size_t sp2 = rest.find(' ');
        if (sp2 == std::string::npos) fail("'plan' wants: plan <party> <plan>");
        std::size_t pos = 0;
        const std::string idx_text = rest.substr(0, sp2);
        int idx = -1;
        try {
          idx = parse_int_at<int>(idx_text, pos, "party index");
        } catch (const FuzzFormatError&) {
          fail("bad party index '" + idx_text + "'");
        }
        if (pos != idx_text.size() || idx < 0 || idx > 1024) {
          fail("bad party index '" + idx_text + "'");
        }
        const std::size_t p = static_cast<std::size_t>(idx);
        if (p < have_plan.size() && have_plan[p]) {
          fail("duplicate plan for party " + std::to_string(idx));
        }
        if (p >= in.plans.size()) {
          in.plans.resize(p + 1);
          have_plan.resize(p + 1, false);
        }
        in.plans[p] = parse_plan(rest.substr(sp2 + 1));
        have_plan[p] = true;
      } else if (word == "fault") {
        const std::size_t sp2 = rest.find(' ');
        if (sp2 == std::string::npos) {
          fail("'fault' wants: fault <chain> <clause>");
        }
        try {
          const chain::FaultPlan one = chain::FaultPlan::parse(
              trimmed(rest.substr(0, sp2)) + ":" +
              trimmed(rest.substr(sp2 + 1)));
          in.faults.entries.insert(in.faults.entries.end(),
                                   one.entries.begin(), one.entries.end());
        } catch (const std::invalid_argument& e) {
          fail(std::string("bad fault clause: ") + e.what());
        }
      } else if (word == "resilience") {
        if (have_resilience) fail("duplicate 'resilience' line");
        if (rest.empty()) fail("'resilience' wants a policy");
        try {
          in.resilience = chain::ResiliencePolicy::parse(rest);
        } catch (const std::invalid_argument& e) {
          fail(std::string("bad resilience policy: ") + e.what());
        }
        have_resilience = true;
      } else {
        fail("unknown directive '" + word +
             "' (want protocol, set, plan, fault, resilience, or a # "
             "comment)");
      }
    }
    if (nl == std::string::npos) break;
    start = nl + 1;
  }
  if (in.protocol.empty()) {
    throw FuzzFormatError("fuzz input: missing 'protocol' line");
  }
  return in;
}

std::string FuzzInput::str() const {
  std::string out = "protocol " + protocol + "\n";
  for (const auto& [key, value] : overrides) {
    out += "set " + key + "=" + value + "\n";
  }
  for (const auto& [chain_name, clause] : faults.entries) {
    out += "fault " + chain_name + " " + clause.str() + "\n";
  }
  if (resilience.active()) {
    out += "resilience " + resilience.str() + "\n";
  }
  for (std::size_t p = 0; p < plans.size(); ++p) {
    if (plans[p].is_conforming()) continue;
    out += "plan " + std::to_string(p) + " " + plans[p].str() + "\n";
  }
  return out;
}

sim::ParamSet FuzzInput::params(const sim::ParamSet& schema) const {
  sim::ParamSet ps = schema;
  for (const auto& [key, value] : overrides) ps.set(key, value);
  return ps;
}

const sim::DeviationPlan& FuzzInput::plan_of(std::size_t p) const {
  static const sim::DeviationPlan kConforming =
      sim::DeviationPlan::conforming();
  return p < plans.size() ? plans[p] : kConforming;
}

FuzzInput canonical_input(const FuzzInput& in,
                          const sim::ProtocolAdapter& adapter,
                          const sim::ParamSet& schema) {
  FuzzInput out = canonical_plans(in, adapter);
  out.overrides = canonical_overrides(in.params(schema), schema);
  return out;
}

Overrides canonical_overrides(const sim::ParamSet& params,
                              const sim::ParamSet& schema) {
  Overrides out;
  for (const sim::ParamSpec& spec : params.specs()) {
    std::string cur = params.value_str(spec.key);
    if (cur != schema.value_str(spec.key)) {
      out.emplace_back(spec.key, std::move(cur));
    }
  }
  return out;
}

FuzzInput canonical_plans(const FuzzInput& in,
                          const sim::ProtocolAdapter& adapter) {
  FuzzInput out;
  out.protocol = in.protocol;
  const std::size_t n = adapter.party_count();
  out.plans.resize(n);
  for (std::size_t p = 0; p < n; ++p) {
    out.plans[p] = canonical_plan(in.plan_of(p),
                                  adapter.action_count(static_cast<PartyId>(p)));
  }
  // Fault clauses and the resilience policy are already one-spelling-per-
  // value (the parsers reject every alternative form), so they pass
  // through unchanged.
  out.faults = in.faults;
  out.resilience = in.resilience;
  return out;
}

sim::Schedule schedule_of(const FuzzInput& in,
                          const sim::ProtocolAdapter& adapter,
                          const std::string& overrides_label) {
  sim::Schedule s = unlabelled_schedule(in, adapter);
  s.label = schedule_label(in, adapter, overrides_label);
  return s;
}

sim::Schedule unlabelled_schedule(const FuzzInput& in,
                                  const sim::ProtocolAdapter& adapter) {
  sim::Schedule s;
  const std::size_t n = adapter.party_count();
  s.plans.reserve(n);
  for (std::size_t p = 0; p < n; ++p) s.plans.push_back(in.plan_of(p));
  return s;
}

std::string schedule_label(const FuzzInput& in,
                           const sim::ProtocolAdapter& adapter,
                           const std::string& overrides_label) {
  std::string label = adapter.name();
  const std::size_t n = adapter.party_count();
  for (std::size_t p = 0; p < n; ++p) {
    label += p == 0 ? '[' : ',';
    label += adapter.plan_label(static_cast<PartyId>(p), in.plan_of(p));
  }
  label += ']';
  if (!overrides_label.empty()) label += " (" + overrides_label + ")";
  return label;
}

}  // namespace xchain::fuzz
