// Minimal JSON document model for scenario-as-data files: api::SystemSpec
// round-trips and the fuzzer's repro documents.
//
// Those formats only need objects, arrays, strings, 64-bit integers and
// booleans, so this is a small recursive-descent parser plus a
// deterministic writer -- not a general JSON library. Kept
// dependency-free on purpose: spec and repro files must parse
// identically everywhere the simulator builds.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace rtk::api {

class Json {
public:
    enum class Kind { null, boolean, number, real, string, array, object };

    Json() = default;

    static Json boolean(bool b);
    static Json number(std::uint64_t v);
    static Json number_signed(std::int64_t v);
    /// Real-valued metric (reports and heat-maps emit these; the parser
    /// reads them back as Kind::real, and the integer readers as_u64 /
    /// as_i64 fall back on them, so repro/spec fields stay
    /// integer-exact). Finite values print as fixed-point %.6f; NaN and
    /// +/-inf, which bare printf would emit as invalid JSON, serialize as
    /// the strings "nan", "inf" and "-inf".
    static Json number_real(double v);
    static Json string(std::string s);
    static Json array();
    static Json object();

    Kind kind() const { return kind_; }
    bool is_object() const { return kind_ == Kind::object; }
    bool is_array() const { return kind_ == Kind::array; }

    // ---- readers (defaulted access: wrong kind returns the fallback) ----
    bool as_bool(bool fallback = false) const;
    std::uint64_t as_u64(std::uint64_t fallback = 0) const;
    std::int64_t as_i64(std::int64_t fallback = 0) const;
    double as_real(double fallback = 0.0) const;
    const std::string& as_string() const;  ///< empty string when not a string

    /// Object member lookup; returns a shared null instance when absent.
    const Json& at(const std::string& key) const;
    bool has(const std::string& key) const;
    /// Array elements (empty when not an array).
    const std::vector<Json>& items() const;
    /// Object members in key order (empty when not an object).
    const std::map<std::string, Json>& members() const;

    // ---- writers ----
    void set(const std::string& key, Json v);  ///< makes this an object
    void push(Json v);                         ///< makes this an array

    /// Serialize; objects emit members in key order so output is
    /// deterministic. `indent` < 0 gives compact one-line output.
    std::string dump(int indent = 2) const;

    /// Deepest array/object nesting parse() accepts. The parser recurses
    /// once per level, so the cap keeps hostile input (a file of '[')
    /// from exhausting the stack; in-tree documents nest 6 deep at most.
    static constexpr int max_depth = 256;

    /// Parse `text`; returns false (and fills `error`) on malformed input,
    /// including nesting deeper than max_depth.
    static bool parse(const std::string& text, Json& out, std::string* error = nullptr);

private:
    Kind kind_ = Kind::null;
    bool bool_ = false;
    std::uint64_t num_ = 0;      ///< magnitude
    bool negative_ = false;      ///< sign of the number
    double real_ = 0.0;          ///< Kind::real payload
    std::string str_;
    std::vector<Json> items_;
    std::map<std::string, Json> members_;

    void dump_to(std::string& out, int indent, int depth) const;
};

}  // namespace rtk::api
