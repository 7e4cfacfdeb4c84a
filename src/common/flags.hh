/**
 * @file
 * Declarative command-line parsing for the bench and example binaries.
 *
 * A binary declares its command line as one FlagTable: each row holds
 * a name (plus any alias), a value placeholder, a help line and a
 * typed destination — a switch, an unsigned number, a non-empty string
 * or a choice from a fixed list. parse() makes one pass over argv and
 * returns an error string instead of exiting, so tests can drive it;
 * usage() is generated from the rows, so the help text cannot drift
 * from what the parser accepts.
 *
 * Flags are spelled `--name` (switches) or `--name=VALUE`; a row whose
 * name has no leading '-' is positional and takes the next bare
 * argument, in declaration order.
 */

#ifndef NDASIM_COMMON_FLAGS_HH
#define NDASIM_COMMON_FLAGS_HH

#include <functional>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace nda {

class FlagTable
{
  public:
    /** `prog` names the binary in usage and error lines; `about` is a
     *  summary printed under the usage line. */
    explicit FlagTable(std::string prog, std::string about = "");

    // The built-in -h/--help row points at help_.
    FlagTable(const FlagTable &) = delete;
    FlagTable &operator=(const FlagTable &) = delete;

    /** A switch: `names` is a comma-separated list like "-q,--quiet". */
    FlagTable &flag(const std::string &names, const std::string &help,
                    bool *dest);
    FlagTable &flag(const std::string &names, const std::string &help,
                    std::function<void()> on);

    /**
     * An unsigned number: decimal digits only — no sign, space or
     * suffix — and within [min, the largest value T holds].
     */
    template <typename T>
    FlagTable &
    number(const std::string &names, const std::string &placeholder,
           const std::string &help, std::function<void(T)> on,
           std::type_identity_t<T> min = 0)
    {
        static_assert(std::is_unsigned_v<T>);
        return add(names, placeholder, help,
                   [on, min](const std::string &v) {
                       unsigned long long n = 0;
                       std::string err = parseUnsigned(
                           v, min, std::numeric_limits<T>::max(), n);
                       if (err.empty())
                           on(static_cast<T>(n));
                       return err;
                   });
    }

    template <typename T>
    FlagTable &
    number(const std::string &names, const std::string &placeholder,
           const std::string &help, T *dest,
           std::type_identity_t<T> min = 0)
    {
        return number<T>(names, placeholder, help,
                         [dest](T n) { *dest = n; }, min);
    }

    /** A non-empty string. */
    FlagTable &text(const std::string &names,
                    const std::string &placeholder,
                    const std::string &help, std::string *dest);

    /** One of `options` (name -> value); anything else is an error
     *  that lists the accepted names. */
    template <typename T>
    FlagTable &
    choice(const std::string &names, const std::string &placeholder,
           const std::string &help,
           std::vector<std::pair<std::string, T>> options,
           std::function<void(T)> on)
    {
        return add(names, placeholder, help,
                   [options = std::move(options),
                    on](const std::string &v) -> std::string {
                       std::string known;
                       for (const auto &[name, value] : options) {
                           if (v == name) {
                               on(value);
                               return "";
                           }
                           known += (known.empty() ? "'" : ", '") +
                                    name + "'";
                       }
                       return "expected one of " + known;
                   });
    }

    template <typename T>
    FlagTable &
    choice(const std::string &names, const std::string &placeholder,
           const std::string &help,
           std::vector<std::pair<std::string, T>> options, T *dest)
    {
        return choice<T>(names, placeholder, help, std::move(options),
                         [dest](T v) { *dest = v; });
    }

    /**
     * Apply argv[1..argc) to the destinations in one pass. Returns ""
     * on success (check helpRequested()), else a one-line message.
     * Parsing stops at the first error or at -h/--help.
     */
    std::string parse(int argc, const char *const *argv);

    /** parse(); on --help print usage() to stdout and exit 0, on an
     *  error print one line to stderr and exit 2. */
    void parseOrExit(int argc, const char *const *argv);

    bool helpRequested() const { return help_; }

    /** The generated help text: one entry per row. */
    std::string usage() const;

  private:
    /** Digits-only parse of `v` into `out`, checked against
     *  [min, max]; returns "" or what is wrong with `v`. */
    static std::string parseUnsigned(const std::string &v,
                                     unsigned long long min,
                                     unsigned long long max,
                                     unsigned long long &out);

    struct Row {
        std::vector<std::string> names;
        std::string placeholder; ///< empty: a switch
        std::string help;
        bool positional = false;
        /** Store the value; "" or what is wrong with it. */
        std::function<std::string(const std::string &)> set;
    };

    FlagTable &add(const std::string &names,
                   const std::string &placeholder,
                   const std::string &help,
                   std::function<std::string(const std::string &)> set);
    Row *find(const std::string &name);

    std::string prog_;
    std::string about_;
    std::vector<Row> rows_;
    bool help_ = false;
};

} // namespace nda

#endif // NDASIM_COMMON_FLAGS_HH
