// Clean fixture, never compiled: the enum inventory and the option struct
// the clean codec and checkpoint fixtures serialize.

enum class Shade : unsigned char {
  kLight = 0,
  kDark = 1,
};

const char* ShadeName(Shade shade);

struct DemoOptions {
  int gamma = 0;
  Shade shade = Shade::kLight;
};
