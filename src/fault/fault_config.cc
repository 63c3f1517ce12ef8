#include "fault_config.hh"

#include <cstdlib>
#include <stdexcept>

#include "common/format.hh"
#include "common/logging.hh"

namespace qei {

namespace {

/** A malformed spec; the two entry points below catch it. */
struct BadSpec : std::invalid_argument
{
    using std::invalid_argument::invalid_argument;
};

template <typename... Args>
[[noreturn]] void
reject(std::string_view fmt_str, const Args&... args)
{
    throw BadSpec("fault spec: " + fmt(fmt_str, args...));
}

double
parseRate(const std::string& key, const std::string& text)
{
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || v < 0.0 || v > 1.0)
        reject("{} wants a rate in [0,1], got '{}'", key, text);
    return v;
}

std::uint64_t
parseCount(const std::string& key, const std::string& text)
{
    char* end = nullptr;
    const std::uint64_t v = std::strtoull(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0')
        reject("{} wants a non-negative integer, got '{}'", key, text);
    return v;
}

FaultConfig
parse(const std::string& spec)
{
    FaultConfig config;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string item = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty())
            continue;

        // "pf@N" targets one query index; "key=value" sets a knob.
        const std::size_t at = item.find('@');
        if (at != std::string::npos) {
            const std::string key = item.substr(0, at);
            const std::uint64_t idx =
                parseCount(item, item.substr(at + 1));
            if (key == "pf") {
                config.pageFaultQueries.push_back(idx);
            } else if (key == "bh") {
                config.badHeaderQueries.push_back(idx);
            } else if (key == "fw") {
                config.firmwareFaultQueries.push_back(idx);
            } else {
                reject("unknown targeted fault '{}' "
                       "(expected pf@N, bh@N, or fw@N)",
                       item);
            }
            continue;
        }

        const std::size_t eq = item.find('=');
        if (eq == std::string::npos)
            reject("'{}' is not key=value or key@index", item);
        const std::string key = item.substr(0, eq);
        const std::string value = item.substr(eq + 1);
        if (key == "pf") {
            config.pageFaultRate = parseRate(key, value);
        } else if (key == "bh") {
            config.badHeaderRate = parseRate(key, value);
        } else if (key == "fw") {
            config.firmwareFaultRate = parseRate(key, value);
        } else if (key == "flush") {
            config.flushPeriod = parseCount(key, value);
        } else if (key == "qst") {
            config.qstEntriesOverride =
                static_cast<int>(parseCount(key, value));
        } else if (key == "seed") {
            config.seed = parseCount(key, value);
        } else if (key == "epoch") {
            config.watchdogEpoch = parseCount(key, value);
            if (config.watchdogEpoch == 0)
                reject("epoch must be positive");
        } else if (key == "strikes") {
            config.watchdogStrikes =
                static_cast<int>(parseCount(key, value));
            if (config.watchdogStrikes <= 0)
                reject("strikes must be positive");
        } else {
            reject("unknown key '{}' (expected pf, bh, fw, "
                   "flush, qst, seed, epoch, or strikes)",
                   key);
        }
    }
    return config;
}

} // namespace

FaultConfig
parseFaultSpec(const std::string& spec)
{
    try {
        return parse(spec);
    } catch (const BadSpec& bad) {
        fatal("{}", bad.what());
    }
}

std::optional<FaultConfig>
tryParseFaultSpec(const std::string& spec, std::string& error)
{
    try {
        return parse(spec);
    } catch (const BadSpec& bad) {
        error = bad.what();
        return std::nullopt;
    }
}

std::string
describeFaults(const FaultConfig& config)
{
    if (!config.any())
        return "none";
    std::string out;
    const auto append = [&out](std::string piece) {
        if (!out.empty())
            out += ' ';
        out += std::move(piece);
    };
    if (config.pageFaultRate > 0.0)
        append(fmt("pf={:.3f}", config.pageFaultRate));
    if (config.badHeaderRate > 0.0)
        append(fmt("bh={:.3f}", config.badHeaderRate));
    if (config.firmwareFaultRate > 0.0)
        append(fmt("fw={:.3f}", config.firmwareFaultRate));
    if (!config.pageFaultQueries.empty())
        append(fmt("pf@x{}", config.pageFaultQueries.size()));
    if (!config.badHeaderQueries.empty())
        append(fmt("bh@x{}", config.badHeaderQueries.size()));
    if (!config.firmwareFaultQueries.empty())
        append(fmt("fw@x{}", config.firmwareFaultQueries.size()));
    if (config.flushPeriod > 0)
        append(fmt("flush={}", config.flushPeriod));
    if (config.qstEntriesOverride > 0)
        append(fmt("qst={}", config.qstEntriesOverride));
    return out;
}

} // namespace qei
