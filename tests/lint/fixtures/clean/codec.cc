// Clean fixture, never compiled: rejecting enum parser, GetEnum pairing
// with a missing-key default.

Status ParseShade(const std::string& name, Shade* out) {
  if (name == "light") {
    *out = Shade::kLight;
  } else if (name == "dark") {
    *out = Shade::kDark;
  } else {
    return Status::InvalidArgument("unknown shade '" + name + "'");
  }
  return Status::OK();
}

template <typename Parser>
Status GetEnum(const JsonValue& obj, const char* key, Parser parser,
               typename ParserTarget<Parser>::type* out) {
  const JsonValue* value = obj.Find(key);
  if (value == nullptr) return Status::OK();  // missing key keeps the default
  auto text = value->AsString();
  if (!text.ok()) return text.status();
  return parser(text.value(), out);
}

void EncodeDemoOptions(JsonWriter* w, const DemoOptions& options) {
  w->Key("gamma").UInt(options.gamma);
  w->Key("shade").String(ShadeName(options.shade));
}

Status DecodeDemoOptions(const JsonValue& value, DemoOptions* out) {
  GetU64(value, "gamma", &out->gamma);
  return GetEnum(value, "shade", ParseShade, &out->shade);
}
