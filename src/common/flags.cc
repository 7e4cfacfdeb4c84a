#include "common/flags.hh"

#include <cstdio>
#include <cstdlib>

namespace nda {

namespace {

/** Help-column indent of usage(). */
constexpr std::size_t kHelpColumn = 24;

} // namespace

FlagTable::FlagTable(std::string prog, std::string about)
    : prog_(std::move(prog)), about_(std::move(about))
{
    flag("-h,--help", "print this help and exit", &help_);
}

FlagTable &
FlagTable::add(const std::string &names, const std::string &placeholder,
               const std::string &help,
               std::function<std::string(const std::string &)> set)
{
    Row row;
    std::size_t start = 0;
    for (;;) {
        const std::size_t comma = names.find(',', start);
        row.names.push_back(names.substr(start, comma - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    row.positional = row.names[0][0] != '-';
    row.placeholder = placeholder;
    row.help = help;
    row.set = std::move(set);
    rows_.push_back(std::move(row));
    return *this;
}

FlagTable &
FlagTable::flag(const std::string &names, const std::string &help,
                bool *dest)
{
    return flag(names, help, [dest] { *dest = true; });
}

FlagTable &
FlagTable::flag(const std::string &names, const std::string &help,
                std::function<void()> on)
{
    return add(names, "", help, [on](const std::string &) {
        on();
        return std::string();
    });
}

FlagTable &
FlagTable::text(const std::string &names, const std::string &placeholder,
                const std::string &help, std::string *dest)
{
    return add(names, placeholder, help,
               [dest](const std::string &v) -> std::string {
                   if (v.empty())
                       return "expected a non-empty value";
                   *dest = v;
                   return "";
               });
}

std::string
FlagTable::parseUnsigned(const std::string &v, unsigned long long min,
                         unsigned long long max, unsigned long long &out)
{
    if (v.empty())
        return "expected a number";
    const unsigned long long limit =
        std::numeric_limits<unsigned long long>::max();
    unsigned long long n = 0;
    for (const char c : v) {
        if (c < '0' || c > '9')
            return "expected a number (digits only)";
        const unsigned d = static_cast<unsigned>(c - '0');
        if (n > (limit - d) / 10)
            return "out of range (at most " + std::to_string(max) + ")";
        n = n * 10 + d;
    }
    if (n > max)
        return "out of range (at most " + std::to_string(max) + ")";
    if (n < min)
        return "out of range (at least " + std::to_string(min) + ")";
    out = n;
    return "";
}

FlagTable::Row *
FlagTable::find(const std::string &name)
{
    for (Row &row : rows_) {
        if (row.positional)
            continue;
        for (const std::string &n : row.names) {
            if (n == name)
                return &row;
        }
    }
    return nullptr;
}

std::string
FlagTable::parse(int argc, const char *const *argv)
{
    std::size_t positional = 0;
    for (int i = 1; i < argc && !help_; ++i) {
        const std::string arg = argv[i];
        if (arg.empty() || arg[0] != '-') {
            Row *row = nullptr;
            std::size_t k = 0;
            for (Row &r : rows_) {
                if (r.positional && k++ == positional) {
                    row = &r;
                    break;
                }
            }
            ++positional;
            if (!row)
                return "unexpected argument '" + arg + "'";
            const std::string err = row->set(arg);
            if (!err.empty())
                return "invalid " + row->names[0] + " '" + arg +
                       "': " + err;
            continue;
        }
        const std::size_t eq = arg.find('=');
        const std::string name = arg.substr(0, eq);
        Row *row = find(name);
        if (!row)
            return "unrecognized argument '" + arg + "'";
        if (row->placeholder.empty() && eq != std::string::npos)
            return "'" + name + "' takes no value";
        if (!row->placeholder.empty() && eq == std::string::npos)
            return "'" + name + "' needs a value (" + name + "=" +
                   row->placeholder + ")";
        const std::string err =
            row->set(eq == std::string::npos ? "" : arg.substr(eq + 1));
        if (!err.empty())
            return "invalid value in '" + arg + "': " + err;
    }
    return "";
}

void
FlagTable::parseOrExit(int argc, const char *const *argv)
{
    const std::string err = parse(argc, argv);
    if (!err.empty()) {
        std::fprintf(stderr, "%s: %s (see --help)\n", prog_.c_str(),
                     err.c_str());
        std::exit(2);
    }
    if (help_) {
        std::fputs(usage().c_str(), stdout);
        std::exit(0);
    }
}

std::string
FlagTable::usage() const
{
    std::string out = "usage: " + prog_ + " [options]";
    for (const Row &row : rows_) {
        if (row.positional)
            out += " [" + row.names[0] + "]";
    }
    out += "\n";
    if (!about_.empty())
        out += about_ + "\n";
    out += "\n";
    for (const Row &row : rows_) {
        std::string spec;
        for (const std::string &n : row.names) {
            if (!spec.empty())
                spec += ", ";
            spec += n;
            if (!row.positional && !row.placeholder.empty())
                spec += "=" + row.placeholder;
        }
        out += "  " + spec;
        if (spec.size() + 2 >= kHelpColumn)
            out += "\n" + std::string(kHelpColumn, ' ');
        else
            out += std::string(kHelpColumn - 2 - spec.size(), ' ');
        // Continuation lines of a multi-line help align under the
        // first.
        for (const char c : row.help) {
            out += c;
            if (c == '\n')
                out += std::string(kHelpColumn, ' ');
        }
        out += "\n";
    }
    return out;
}

} // namespace nda
