// Clean fixture, never compiled: range-validates the enum byte before
// casting.

void WriteDemoOptions(std::string* out, const DemoOptions& options) {
  AppendU64(out, options.gamma);
  AppendU8(out, static_cast<unsigned char>(options.shade));
}

Status ReadDemoOptions(Cursor* cursor, DemoOptions* out) {
  ReadU64(cursor, &out->gamma);
  unsigned char shade = 0;
  ReadU8(cursor, &shade);
  if (shade > 1) {
    return Status::InvalidArgument("checkpoint: shade out of range");
  }
  out->shade = static_cast<Shade>(shade);
  return Status::OK();
}
