#include "api/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace rtk::api {

namespace {
const Json null_json{};
const std::string empty_string;
const std::vector<Json> no_items;
const std::map<std::string, Json> no_members;
}  // namespace

Json Json::boolean(bool b) {
    Json j;
    j.kind_ = Kind::boolean;
    j.bool_ = b;
    return j;
}

Json Json::number(std::uint64_t v) {
    Json j;
    j.kind_ = Kind::number;
    j.num_ = v;
    return j;
}

Json Json::number_signed(std::int64_t v) {
    Json j;
    j.kind_ = Kind::number;
    if (v < 0) {
        j.negative_ = true;
        j.num_ = static_cast<std::uint64_t>(-(v + 1)) + 1;  // avoids INT64_MIN UB
    } else {
        j.num_ = static_cast<std::uint64_t>(v);
    }
    return j;
}

Json Json::number_real(double v) {
    Json j;
    j.kind_ = Kind::real;
    j.real_ = v;
    return j;
}

Json Json::string(std::string s) {
    Json j;
    j.kind_ = Kind::string;
    j.str_ = std::move(s);
    return j;
}

Json Json::array() {
    Json j;
    j.kind_ = Kind::array;
    return j;
}

Json Json::object() {
    Json j;
    j.kind_ = Kind::object;
    return j;
}

bool Json::as_bool(bool fallback) const {
    return kind_ == Kind::boolean ? bool_ : fallback;
}

std::uint64_t Json::as_u64(std::uint64_t fallback) const {
    if (kind_ != Kind::number || negative_) {
        return fallback;
    }
    return num_;
}

std::int64_t Json::as_i64(std::int64_t fallback) const {
    if (kind_ != Kind::number) {
        return fallback;
    }
    if (negative_) {
        return -static_cast<std::int64_t>(num_ - 1) - 1;
    }
    return static_cast<std::int64_t>(num_);
}

double Json::as_real(double fallback) const {
    switch (kind_) {
        case Kind::real: return real_;
        case Kind::number:
            return negative_ ? -static_cast<double>(num_)
                             : static_cast<double>(num_);
        default: return fallback;
    }
}

const std::string& Json::as_string() const {
    return kind_ == Kind::string ? str_ : empty_string;
}

const Json& Json::at(const std::string& key) const {
    if (kind_ == Kind::object) {
        auto it = members_.find(key);
        if (it != members_.end()) {
            return it->second;
        }
    }
    return null_json;
}

bool Json::has(const std::string& key) const {
    return kind_ == Kind::object && members_.count(key) != 0;
}

const std::vector<Json>& Json::items() const {
    return kind_ == Kind::array ? items_ : no_items;
}

const std::map<std::string, Json>& Json::members() const {
    return kind_ == Kind::object ? members_ : no_members;
}

void Json::set(const std::string& key, Json v) {
    kind_ = Kind::object;
    members_[key] = std::move(v);
}

void Json::push(Json v) {
    kind_ = Kind::array;
    items_.push_back(std::move(v));
}

// ---- writer -----------------------------------------------------------------

namespace {
void append_escaped(std::string& out, const std::string& s) {
    out += '"';
    for (char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    out += '"';
}

void append_newline_indent(std::string& out, int indent, int depth) {
    if (indent < 0) {
        return;
    }
    out += '\n';
    out.append(static_cast<std::size_t>(indent * depth), ' ');
}
}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
    switch (kind_) {
        case Kind::null:
            out += "null";
            return;
        case Kind::boolean:
            out += bool_ ? "true" : "false";
            return;
        case Kind::number:
            if (negative_) {
                out += '-';
            }
            out += std::to_string(num_);
            return;
        case Kind::real:
            if (std::isfinite(real_)) {
                char buf[64];
                std::snprintf(buf, sizeof(buf), "%.6f", real_);
                out += buf;
            } else if (std::isnan(real_)) {
                out += "\"nan\"";
            } else {
                out += real_ > 0 ? "\"inf\"" : "\"-inf\"";
            }
            return;
        case Kind::string:
            append_escaped(out, str_);
            return;
        case Kind::array: {
            if (items_.empty()) {
                out += "[]";
                return;
            }
            out += '[';
            bool first = true;
            for (const Json& v : items_) {
                if (!first) {
                    out += ',';
                    if (indent < 0) {
                        out += ' ';
                    }
                }
                first = false;
                append_newline_indent(out, indent, depth + 1);
                v.dump_to(out, indent, depth + 1);
            }
            append_newline_indent(out, indent, depth);
            out += ']';
            return;
        }
        case Kind::object: {
            if (members_.empty()) {
                out += "{}";
                return;
            }
            out += '{';
            bool first = true;
            for (const auto& [k, v] : members_) {
                if (!first) {
                    out += ',';
                    if (indent < 0) {
                        out += ' ';
                    }
                }
                first = false;
                append_newline_indent(out, indent, depth + 1);
                append_escaped(out, k);
                out += ": ";
                v.dump_to(out, indent, depth + 1);
            }
            append_newline_indent(out, indent, depth);
            out += '}';
            return;
        }
    }
}

std::string Json::dump(int indent) const {
    std::string out;
    dump_to(out, indent, 0);
    return out;
}

// ---- parser -----------------------------------------------------------------

namespace {

class Parser {
public:
    Parser(const std::string& text, std::string* error)
        : s_(text), error_(error) {}

    bool parse_document(Json& out) {
        skip_ws();
        if (!parse_value(out)) {
            return false;
        }
        skip_ws();
        if (pos_ != s_.size()) {
            return fail("trailing characters after document");
        }
        return true;
    }

private:
    bool fail(const std::string& what) {
        if (error_ != nullptr) {
            *error_ = what + " at offset " + std::to_string(pos_);
        }
        return false;
    }

    void skip_ws() {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                s_[pos_] == '\r')) {
            ++pos_;
        }
    }

    bool literal(const char* word) {
        const std::size_t n = std::string(word).size();
        if (s_.compare(pos_, n, word) != 0) {
            return fail(std::string("expected '") + word + "'");
        }
        pos_ += n;
        return true;
    }

    bool parse_value(Json& out) {
        if (pos_ >= s_.size()) {
            return fail("unexpected end of input");
        }
        switch (s_[pos_]) {
            case '{':
            case '[': {
                if (depth_ == Json::max_depth) {
                    return fail("nesting deeper than " + std::to_string(Json::max_depth) +
                                " levels");
                }
                ++depth_;
                const bool ok = s_[pos_] == '{' ? parse_object(out) : parse_array(out);
                --depth_;
                return ok;
            }
            case '"': {
                std::string str;
                if (!parse_string(str)) {
                    return false;
                }
                out = Json::string(std::move(str));
                return true;
            }
            case 't':
                out = Json::boolean(true);
                return literal("true");
            case 'f':
                out = Json::boolean(false);
                return literal("false");
            case 'n':
                out = Json{};
                return literal("null");
            default: return parse_number(out);
        }
    }

    bool parse_number(Json& out) {
        const std::size_t start = pos_;
        bool neg = false;
        if (s_[pos_] == '-') {
            neg = true;
            ++pos_;
        }
        if (pos_ >= s_.size() || !std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
            return fail("malformed number");
        }
        std::uint64_t mag = 0;
        while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
            const std::uint64_t digit = static_cast<std::uint64_t>(s_[pos_] - '0');
            if (mag > (UINT64_MAX - digit) / 10) {
                return fail("integer overflow");
            }
            mag = mag * 10 + digit;
            ++pos_;
        }
        if (pos_ < s_.size() && (s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E')) {
            // Real literal (emitted by number_real for the bench/report
            // documents). Reparse the whole token with strtod; spec and
            // repro readers still see integers only, because as_u64 /
            // as_i64 fall back on a real value.
            while (pos_ < s_.size() &&
                   (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                    s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                    s_[pos_] == '+' || s_[pos_] == '-')) {
                ++pos_;
            }
            const std::string tok = s_.substr(start, pos_ - start);
            char* end = nullptr;
            const double v = std::strtod(tok.c_str(), &end);
            if (end == nullptr || *end != '\0') {
                return fail("malformed number");
            }
            out = Json::number_real(v);
            return true;
        }
        if (neg) {
            if (mag > (1ull << 63)) {
                return fail("integer overflow");
            }
            if (mag == 0) {
                out = Json::number(0);
            } else {
                // Magnitude-aware negation: valid down to INT64_MIN
                // (mag == 2^63) without signed overflow.
                out = Json::number_signed(-static_cast<std::int64_t>(mag - 1) - 1);
            }
        } else {
            out = Json::number(mag);
        }
        return true;
    }

    bool parse_string(std::string& out) {
        ++pos_;  // opening quote
        out.clear();
        while (pos_ < s_.size()) {
            const char c = s_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c == '\\') {
                if (pos_ + 1 >= s_.size()) {
                    return fail("bad escape");
                }
                const char esc = s_[pos_ + 1];
                pos_ += 2;
                switch (esc) {
                    case '"': out += '"'; break;
                    case '\\': out += '\\'; break;
                    case '/': out += '/'; break;
                    case 'n': out += '\n'; break;
                    case 'r': out += '\r'; break;
                    case 't': out += '\t'; break;
                    case 'u': {
                        if (pos_ + 4 > s_.size()) {
                            return fail("bad \\u escape");
                        }
                        unsigned code = 0;
                        for (int i = 0; i < 4; ++i) {
                            const char h = s_[pos_ + static_cast<std::size_t>(i)];
                            code <<= 4;
                            if (h >= '0' && h <= '9') {
                                code |= static_cast<unsigned>(h - '0');
                            } else if (h >= 'a' && h <= 'f') {
                                code |= static_cast<unsigned>(h - 'a' + 10);
                            } else if (h >= 'A' && h <= 'F') {
                                code |= static_cast<unsigned>(h - 'A' + 10);
                            } else {
                                return fail("bad \\u escape");
                            }
                        }
                        pos_ += 4;
                        if (code > 0x7f) {
                            // Repro files are ASCII; keep the parser honest.
                            return fail("non-ASCII \\u escape unsupported");
                        }
                        out += static_cast<char>(code);
                        break;
                    }
                    default: return fail("unknown escape");
                }
                continue;
            }
            out += c;
            ++pos_;
        }
        return fail("unterminated string");
    }

    bool parse_array(Json& out) {
        out = Json::array();
        ++pos_;  // '['
        skip_ws();
        if (pos_ < s_.size() && s_[pos_] == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            Json v;
            if (!parse_value(v)) {
                return false;
            }
            out.push(std::move(v));
            skip_ws();
            if (pos_ >= s_.size()) {
                return fail("unterminated array");
            }
            if (s_[pos_] == ',') {
                ++pos_;
                skip_ws();
                continue;
            }
            if (s_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool parse_object(Json& out) {
        out = Json::object();
        ++pos_;  // '{'
        skip_ws();
        if (pos_ < s_.size() && s_[pos_] == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skip_ws();
            if (pos_ >= s_.size() || s_[pos_] != '"') {
                return fail("expected object key");
            }
            std::string key;
            if (!parse_string(key)) {
                return false;
            }
            skip_ws();
            if (pos_ >= s_.size() || s_[pos_] != ':') {
                return fail("expected ':'");
            }
            ++pos_;
            skip_ws();
            Json v;
            if (!parse_value(v)) {
                return false;
            }
            out.set(key, std::move(v));
            skip_ws();
            if (pos_ >= s_.size()) {
                return fail("unterminated object");
            }
            if (s_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (s_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    const std::string& s_;
    std::string* error_;
    std::size_t pos_ = 0;
    int depth_ = 0;  ///< open arrays/objects around pos_
};

}  // namespace

bool Json::parse(const std::string& text, Json& out, std::string* error) {
    return Parser(text, error).parse_document(out);
}

}  // namespace rtk::api
