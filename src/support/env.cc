#include "gm/support/env.hh"

#include <cstdlib>
#include <thread>

namespace gm
{

std::int64_t
env_int(const char* name, std::int64_t fallback)
{
    const char* env = std::getenv(name);
    if (env == nullptr)
        return fallback;
    char* end = nullptr;
    long long v = std::strtoll(env, &end, 10);
    if (end == env)
        return fallback;
    return static_cast<std::int64_t>(v);
}

std::string
env_string(const char* name, const std::string& fallback)
{
    const char* env = std::getenv(name);
    return env == nullptr ? fallback : std::string(env);
}

bool
env_bool(const char* name, bool fallback)
{
    const char* env = std::getenv(name);
    if (env == nullptr)
        return fallback;
    std::string s(env);
    return s == "1" || s == "true" || s == "yes" || s == "on";
}

int
pool_lanes()
{
    const std::int64_t env = env_int("GM_THREADS", 0);
    if (env > 0)
        return static_cast<int>(env);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

} // namespace gm
