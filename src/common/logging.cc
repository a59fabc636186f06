#include "common/logging.hh"

#include <cstdarg>
#include <cstdio>
#include <vector>

namespace tp {

std::string
vstrprintf(const char *fmt, std::va_list ap)
{
    std::va_list ap_copy;
    va_copy(ap_copy, ap);
    const int needed = std::vsnprintf(nullptr, 0, fmt, ap_copy);
    va_end(ap_copy);
    if (needed < 0)
        return "<format error>";
    std::vector<char> buf(static_cast<std::size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap);
    return std::string(buf.data(), static_cast<std::size_t>(needed));
}

std::string
strprintf(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string s = vstrprintf(fmt, ap);
    va_end(ap);
    return s;
}

void
panic(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string msg = "panic: " + vstrprintf(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "%s\n", msg.c_str());
    throw SimError(msg);
}

void
fatal(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string msg = "fatal: " + vstrprintf(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "%s\n", msg.c_str());
    throw SimError(msg);
}

void
warn(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrprintf(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

} // namespace tp
