#include "gm/support/fingerprint.hh"

#include <sstream>

#include <unistd.h>

#include "gm/support/env.hh"
#include "gm/support/json.hh"

#ifndef GM_GIT_SHA
#define GM_GIT_SHA "unknown"
#endif
#ifndef GM_BUILD_TYPE
#define GM_BUILD_TYPE "unknown"
#endif
#ifndef GM_SANITIZE_NAME
#define GM_SANITIZE_NAME ""
#endif

namespace gm::support
{

namespace
{

std::string
compiler_id()
{
    std::ostringstream os;
#if defined(__clang__)
    os << "clang " << __clang_major__ << "." << __clang_minor__ << "."
       << __clang_patchlevel__;
#elif defined(__GNUC__)
    os << "gcc " << __GNUC__ << "." << __GNUC_MINOR__ << "."
       << __GNUC_PATCHLEVEL__;
#else
    os << "unknown";
#endif
    return os.str();
}

std::string
host_name()
{
    char buf[256] = {};
    if (gethostname(buf, sizeof(buf) - 1) == 0 && buf[0] != '\0')
        return buf;
    return env_string("HOSTNAME", "unknown");
}

} // namespace

EnvFingerprint
collect_fingerprint()
{
    EnvFingerprint fp;
    fp.git_sha = env_string("GM_GIT_SHA", GM_GIT_SHA);
    fp.compiler = compiler_id();
    fp.build = GM_BUILD_TYPE;
    if (const std::string san = GM_SANITIZE_NAME; !san.empty())
        fp.build += "+" + san;
    fp.hostname = host_name();
    fp.threads = pool_lanes();
    return fp;
}

std::string
fingerprint_json(const EnvFingerprint& fp)
{
    std::ostringstream out;
    out << "{\"git_sha\":\"" << json_escape(fp.git_sha) << "\""
        << ",\"compiler\":\"" << json_escape(fp.compiler) << "\""
        << ",\"build\":\"" << json_escape(fp.build) << "\""
        << ",\"hostname\":\"" << json_escape(fp.hostname) << "\""
        << ",\"threads\":" << fp.threads
        << ",\"scales\":\"" << json_escape(fp.scales) << "\"}";
    return out.str();
}

StatusOr<EnvFingerprint>
parse_fingerprint_json(const std::string& text)
{
    std::map<std::string, std::string> fields;
    if (Status s = parse_flat_json(text, fields); !s.is_ok())
        return s;
    EnvFingerprint fp;
    if (const auto it = fields.find("git_sha"); it != fields.end())
        fp.git_sha = it->second;
    if (const auto it = fields.find("compiler"); it != fields.end())
        fp.compiler = it->second;
    if (const auto it = fields.find("build"); it != fields.end())
        fp.build = it->second;
    if (const auto it = fields.find("hostname"); it != fields.end())
        fp.hostname = it->second;
    if (const auto it = fields.find("scales"); it != fields.end())
        fp.scales = it->second;
    if (const auto it = fields.find("threads"); it != fields.end()) {
        try {
            fp.threads = std::stoi(it->second);
        } catch (const std::exception&) {
            return Status(StatusCode::kCorruptData,
                          "fingerprint: non-numeric threads field");
        }
    }
    return fp;
}

std::string
fingerprint_record_line(const EnvFingerprint& fp)
{
    // Same flat shape as fingerprint_json, with the discriminating
    // "kind" key first so stream readers can skip it without a full
    // parse of the schema.
    std::string body = fingerprint_json(fp);
    return "{\"kind\":\"fingerprint\"," + body.substr(1);
}

} // namespace gm::support
